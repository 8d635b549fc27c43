//===- analysis/Dominators.cpp - Dominator tree ---------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include <algorithm>
#include <utility>

using namespace spvfuzz;

DominatorTree::DominatorTree(const Function &Func, const Cfg &Graph)
    : Graph(&Graph) {
  (void)Func;
  const std::vector<Id> &Rpo = Graph.reversePostorder();
  const uint32_t Size = static_cast<uint32_t>(Rpo.size());
  Nodes.resize(Size);
  if (Size == 0)
    return;

  // Each position's reachable predecessors, as positions, in list order.
  std::vector<uint32_t> PredBegin(Size + 1), PredPos;
  for (uint32_t P = 0; P != Size; ++P) {
    PredBegin[P] = static_cast<uint32_t>(PredPos.size());
    for (Id Pred : Graph.predecessors(Rpo[P]))
      if (uint32_t Q = Graph.rpoPosition(Pred); Q != Cfg::None)
        PredPos.push_back(Q);
  }
  PredBegin[Size] = static_cast<uint32_t>(PredPos.size());

  // Cooper-Harvey-Kennedy. Position 0 is the entry; a smaller position is
  // earlier in reverse postorder.
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (A > B)
        A = Nodes[A].Idom;
      while (B > A)
        B = Nodes[B].Idom;
    }
    return A;
  };
  Nodes[0].Idom = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t P = 1; P != Size; ++P) {
      uint32_t NewIdom = Cfg::None;
      for (uint32_t I = PredBegin[P]; I != PredBegin[P + 1]; ++I) {
        uint32_t Pred = PredPos[I];
        if (Nodes[Pred].Idom == Cfg::None)
          continue;
        NewIdom = NewIdom == Cfg::None ? Pred : Intersect(NewIdom, Pred);
      }
      if (NewIdom != Cfg::None && Nodes[P].Idom != NewIdom) {
        Nodes[P].Idom = NewIdom;
        Changed = true;
      }
    }
  }
  // The entry's idom is conventionally "none".
  Nodes[0].Idom = Cfg::None;

  // Number the tree with DFS intervals so dominates() is two lookups
  // instead of a chain walk: A dominates B iff In[A] <= In[B] and
  // Out[B] <= Out[A]. Every position is in the tree: a block's DFS parent
  // precedes it in reverse postorder, so the first sweep gives it an idom.
  // Children are packed like the Cfg's edge lists.
  std::vector<uint32_t> ChildBegin(Size + 1, 0), Children;
  for (uint32_t P = 1; P != Size; ++P)
    if (Nodes[P].Idom != Cfg::None)
      ++ChildBegin[Nodes[P].Idom + 1];
  for (uint32_t P = 0; P != Size; ++P)
    ChildBegin[P + 1] += ChildBegin[P];
  Children.resize(ChildBegin[Size]);
  for (uint32_t P = 1; P != Size; ++P)
    if (Nodes[P].Idom != Cfg::None)
      Children[ChildBegin[Nodes[P].Idom]++] = P;
  std::copy_backward(ChildBegin.begin(), ChildBegin.end() - 1,
                     ChildBegin.end());
  ChildBegin[0] = 0;

  uint32_t Clock = 0;
  // Iterative DFS; the second visit of a frame assigns the exit time.
  std::vector<std::pair<uint32_t, bool>> Stack;
  Stack.push_back({0, false});
  while (!Stack.empty()) {
    auto [P, Done] = Stack.back();
    Stack.pop_back();
    if (Done) {
      Nodes[P].Out = ++Clock;
      continue;
    }
    Nodes[P].In = ++Clock;
    Stack.push_back({P, true});
    for (uint32_t I = ChildBegin[P]; I != ChildBegin[P + 1]; ++I)
      Stack.push_back({Children[I], false});
  }
}

bool DominatorTree::dominates(Id A, Id B) const {
  if (A == B)
    return true;
  uint32_t PA = Graph->rpoPosition(A);
  uint32_t PB = Graph->rpoPosition(B);
  if (PA == Cfg::None || PB == Cfg::None)
    return false;
  const Node &NA = Nodes[PA], &NB = Nodes[PB];
  return NA.In <= NB.In && NB.Out <= NA.Out;
}

//===- analysis/Cfg.cpp - Control-flow graph utilities --------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"

#include <algorithm>

using namespace spvfuzz;

Cfg::Cfg(const Function &Func) {
  if (Func.Blocks.empty())
    return;
  Entry = Func.Blocks.front().LabelId;

  // The slot table spans every label and branch target.
  Id Lo = Entry, Hi = Entry;
  auto Widen = [&](Id TheId) {
    Lo = std::min(Lo, TheId);
    Hi = std::max(Hi, TheId);
  };
  for (const BasicBlock &Block : Func.Blocks) {
    Widen(Block.LabelId);
    Block.forEachSuccessor(Widen);
  }
  Base = Lo;
  Slots.assign(size_t(Hi - Lo) + 1, None);

  // Number the nodes and count predecessors into PredBegin[N + 1]. Owner
  // is the last block carrying a node's label (None for a target that
  // labels no block here).
  std::vector<uint32_t> Owner;
  Owner.reserve(Func.Blocks.size());
  PredBegin.assign(1, 0);
  auto NodeOf = [&](Id TheId) {
    uint32_t &Slot = Slots[TheId - Base];
    if (Slot == None) {
      Slot = static_cast<uint32_t>(Owner.size());
      Owner.push_back(None);
      PredBegin.push_back(0);
    }
    return Slot;
  };
  for (uint32_t B = 0, E = static_cast<uint32_t>(Func.Blocks.size()); B != E;
       ++B) {
    uint32_t N = NodeOf(Func.Blocks[B].LabelId);
    Owner[N] = B;
    Func.Blocks[B].forEachSuccessor(
        [&](Id Succ) { ++PredBegin[NodeOf(Succ) + 1]; });
  }
  const uint32_t NumNodes = static_cast<uint32_t>(Owner.size());

  SuccBegin.resize(NumNodes + 1);
  for (uint32_t N = 0; N != NumNodes; ++N) {
    SuccBegin[N] = static_cast<uint32_t>(SuccIds.size());
    if (Owner[N] != None)
      Func.Blocks[Owner[N]].forEachSuccessor(
          [&](Id Succ) { SuccIds.push_back(Succ); });
  }
  SuccBegin[NumNodes] = static_cast<uint32_t>(SuccIds.size());

  // Predecessors in block order: turn the counts into starts, fill each
  // list through its start (which leaves it at the next list's start),
  // then shift the starts back into place.
  for (uint32_t N = 0; N != NumNodes; ++N)
    PredBegin[N + 1] += PredBegin[N];
  PredIds.resize(PredBegin[NumNodes]);
  for (const BasicBlock &Block : Func.Blocks)
    Block.forEachSuccessor(
        [&](Id Succ) { PredIds[PredBegin[node(Succ)]++] = Block.LabelId; });
  std::copy_backward(PredBegin.begin(), PredBegin.end() - 1, PredBegin.end());
  PredBegin[0] = 0;

  // Depth-first search from the entry, successors in order, with an
  // explicit stack; RpoPos doubles as the visited mark until the reverse
  // postorder is known.
  struct Frame {
    Id Block;
    uint32_t Node;
    uint32_t Next; // next successor to visit, an index into SuccIds
  };
  std::vector<Frame> Stack;
  RpoPos.assign(NumNodes, None);
  Rpo.reserve(NumNodes);
  auto Visit = [&](Id Block) {
    uint32_t N = node(Block);
    RpoPos[N] = 0;
    Stack.push_back(Frame{Block, N, SuccBegin[N]});
  };
  Visit(Entry);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next == SuccBegin[Top.Node + 1]) {
      Rpo.push_back(Top.Block); // postorder for now
      Stack.pop_back();
      continue;
    }
    Id Succ = SuccIds[Top.Next++];
    if (RpoPos[node(Succ)] == None)
      Visit(Succ);
  }
  std::reverse(Rpo.begin(), Rpo.end());
  for (uint32_t I = 0, E = static_cast<uint32_t>(Rpo.size()); I != E; ++I)
    RpoPos[node(Rpo[I])] = I;
}

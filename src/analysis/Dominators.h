//===- analysis/Dominators.h - Dominator tree -------------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree over a function's CFG, via the Cooper-Harvey-Kennedy
/// iterative algorithm run over reverse-postorder positions. Needed by the
/// validator (MiniSPV inherits SPIR-V's rule that a block must precede the
/// blocks it dominates and that uses must be dominated by definitions) and
/// by several transformations (MoveBlockDown, PropagateInstructionUp).
///
/// Every table is a vector indexed by the block's position in
/// Cfg::reversePostorder(), so an Id query is one Cfg slot lookup plus an
/// index. Dominance queries are answered in O(1) from a DFS interval
/// numbering of the tree computed at construction time: A dominates B iff
/// A's interval contains B's.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_DOMINATORS_H
#define ANALYSIS_DOMINATORS_H

#include "analysis/Cfg.h"

namespace spvfuzz {

class DominatorTree {
public:
  /// \p Graph must outlive the tree: queries find blocks through it.
  DominatorTree(const Function &Func, const Cfg &Graph);

  /// Returns the immediate dominator of \p Block, or InvalidId for the
  /// entry block and for unreachable blocks.
  Id immediateDominator(Id Block) const {
    uint32_t Pos = Graph->rpoPosition(Block);
    if (Pos == Cfg::None || Nodes[Pos].Idom == Cfg::None)
      return InvalidId;
    return Graph->reversePostorder()[Nodes[Pos].Idom];
  }

  /// True if \p A dominates \p B (reflexively). Unreachable blocks
  /// dominate nothing and are dominated by nothing (except themselves).
  bool dominates(Id A, Id B) const;

  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(Id A, Id B) const { return A != B && dominates(A, B); }

private:
  struct Node {
    uint32_t Idom = Cfg::None; // an RPO position
    uint32_t In = 0;           // DFS entry time in the tree
    uint32_t Out = 0;          // DFS exit time
  };

  const Cfg *Graph;
  std::vector<Node> Nodes; // indexed by RPO position
};

} // namespace spvfuzz

#endif // ANALYSIS_DOMINATORS_H

//===- analysis/Cfg.h - Control-flow graph utilities ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Successor/predecessor lists, reachability and reverse postorder over a
/// function's blocks.
///
/// A Cfg is rebuilt for every transformation attempt, replay step,
/// validator call and opt pass that asks for one, so it is built from flat
/// tables instead of hash containers: one node per distinct label and per
/// branch target, found through an `id - Base` slot table (ids are dense
/// below the module bound, so the table is at most that wide); successor
/// and predecessor lists packed into two arrays; and an explicit-stack DFS
/// that visits successors in order. Queries stay keyed by Id. A branch
/// target outside the function (the validator builds a Cfg for such
/// modules before rejecting them) is a node too: it has predecessors and,
/// if reached, a place in the reverse postorder, but no successors.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_CFG_H
#define ANALYSIS_CFG_H

#include "ir/Module.h"

#include <span>

namespace spvfuzz {

/// A snapshot of a function's control-flow graph. Invalidated by any CFG
/// mutation; rebuild after transforming.
class Cfg {
public:
  /// Marks "no node" in node and position lookups.
  static constexpr uint32_t None = ~0u;

  explicit Cfg(const Function &Func);

  /// The successor labels of \p Block's terminator, in operand order (an
  /// equal-target conditional lists its target twice). With duplicate
  /// labels, the last block carrying the label supplies the list.
  std::span<const Id> successors(Id Block) const {
    return edges(SuccBegin, SuccIds, node(Block));
  }

  /// The blocks whose terminators name \p Block, in block order, once per
  /// naming operand.
  std::span<const Id> predecessors(Id Block) const {
    return edges(PredBegin, PredIds, node(Block));
  }

  bool isReachable(Id Block) const { return rpoPosition(Block) != None; }

  Id entryId() const { return Entry; }

  /// Block ids in reverse-postorder over reachable blocks.
  const std::vector<Id> &reversePostorder() const { return Rpo; }

  /// The index of \p Block in reversePostorder(), or None if it is
  /// unreachable or not a node. Dense positions key the dominator tree.
  uint32_t rpoPosition(Id Block) const {
    uint32_t N = node(Block);
    return N == None ? None : RpoPos[N];
  }

private:
  uint32_t node(Id Block) const {
    Id Slot = Block - Base; // wraps for ids below Base
    return Slot < Slots.size() ? Slots[Slot] : None;
  }

  static std::span<const Id> edges(const std::vector<uint32_t> &Begin,
                                   const std::vector<Id> &Ids, uint32_t N) {
    if (N == None)
      return {};
    return std::span<const Id>(Ids.data() + Begin[N], Begin[N + 1] - Begin[N]);
  }

  Id Entry = InvalidId;
  Id Base = 0;
  std::vector<uint32_t> Slots; // id - Base -> node, or None
  // Node N's successors are SuccIds[SuccBegin[N], SuccBegin[N + 1]); the
  // same layout for predecessors.
  std::vector<uint32_t> SuccBegin, PredBegin;
  std::vector<Id> SuccIds, PredIds;
  std::vector<uint32_t> RpoPos; // node -> position in Rpo, or None
  std::vector<Id> Rpo;
};

} // namespace spvfuzz

#endif // ANALYSIS_CFG_H

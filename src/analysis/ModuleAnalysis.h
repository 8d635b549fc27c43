//===- analysis/ModuleAnalysis.h - Def/use and availability -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module-wide snapshot combining definition sites, use counts, and
/// per-function CFGs and dominator trees. Transformations consult it to
/// decide whether an id is *available* at a program point (defined in a
/// dominating position), which is MiniSPV's (and SPIR-V's) core scoping
/// rule. Invalidated by any module mutation; rebuild after transforming.
///
/// An analysis is constructed once per transformation attempt on both the
/// fuzzing and replay hot paths, so it keeps no hash containers and
/// construction builds only flat tables: the def-site table indexed by id
/// (a label's slot also records its block's size, the idAvailableAtEnd
/// position) and a vector of the module's functions. Use counts, CFGs and
/// dominator trees are computed on first query (most precondition checks
/// never ask for them), from the module as it is at that moment. The lazy
/// state makes a ModuleAnalysis instance single-threaded: construct one
/// per thread, never share.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_MODULEANALYSIS_H
#define ANALYSIS_MODULEANALYSIS_H

#include "analysis/Cfg.h"
#include "analysis/Dominators.h"

#include <optional>

namespace spvfuzz {

class ModuleAnalysis {
public:
  explicit ModuleAnalysis(const Module &M);
  // Each function's dominator tree points at the Cfg stored beside it.
  ModuleAnalysis(const ModuleAnalysis &) = delete;
  ModuleAnalysis &operator=(const ModuleAnalysis &) = delete;

  /// 24 bytes: the table is refilled for every id on every construction.
  struct DefInfo {
    enum class Kind : uint8_t { None, Global, FunctionDef, Param, Body, Label };
    Kind DefKind = Kind::None;
    Id FuncId = InvalidId;  // for Param/Body/Label/FunctionDef
    Id BlockId = InvalidId; // for Body/Label
    /// For Body: index into the block. For Label: the block's body size
    /// when the analysis was built.
    uint32_t Index = 0;
    /// The defining instruction; nullptr for labels (which, as in
    /// Module::findDef, have no instruction). Valid while the analysed
    /// module is unchanged.
    const Instruction *Inst = nullptr;
  };

  /// Returns the definition site of \p TheId, or nullptr. Ids are dense
  /// (always below Module::Bound), so the table is a flat vector and the
  /// lookup is an index, not a hash.
  const DefInfo *defInfo(Id TheId) const {
    if (TheId >= Defs.size())
      return nullptr;
    const DefInfo &Info = Defs[TheId];
    return Info.DefKind == DefInfo::Kind::None ? nullptr : &Info;
  }

  /// O(1) equivalent of Module::findDef over the analysed module: the
  /// defining instruction of \p TheId, or nullptr for unknown ids and
  /// labels.
  const Instruction *def(Id TheId) const {
    const DefInfo *Info = defInfo(TheId);
    return Info ? Info->Inst : nullptr;
  }

  /// True if \p ValueId may be used by the instruction at position
  /// (\p FuncId, \p BlockId, \p InstIndex): globals and the function's
  /// parameters are available everywhere in the function; body definitions
  /// must precede the use in the same block or strictly dominate its block.
  bool idAvailableBefore(Id ValueId, Id FuncId, Id BlockId,
                         size_t InstIndex) const;

  /// True if \p ValueId is available at the *end* of \p BlockId, the rule
  /// for phi incoming values.
  bool idAvailableAtEnd(Id ValueId, Id FuncId, Id BlockId) const;

  /// Number of id uses of \p TheId across the module (including phi and
  /// branch operands and result types). Counted on first call.
  size_t useCount(Id TheId) const;

  /// Built on first query per function.
  const Cfg &cfg(Id FuncId) const;
  const DominatorTree &domTree(Id FuncId) const;

private:
  /// One function's lazily built analyses. Slots never move once the
  /// analysis is constructed, so a DominatorTree may point at its Cfg.
  struct FuncAnalyses {
    const Function *Func = nullptr;
    std::optional<Cfg> Graph;
    std::optional<DominatorTree> Dom;
  };
  FuncAnalyses &funcAnalyses(Id FuncId) const;

  const Module *M = nullptr;
  std::vector<DefInfo> Defs; // indexed by id, sized to the module bound
  // Lazily materialized query state (see file comment: single-threaded).
  mutable std::vector<FuncAnalyses> Funcs; // in module order
  mutable bool UsesBuilt = false;
  mutable std::vector<size_t> Uses; // indexed by id
};

} // namespace spvfuzz

#endif // ANALYSIS_MODULEANALYSIS_H

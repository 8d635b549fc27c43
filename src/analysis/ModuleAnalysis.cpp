//===- analysis/ModuleAnalysis.cpp - Def/use and availability -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModuleAnalysis.h"

#include <cstdlib>

using namespace spvfuzz;

ModuleAnalysis::ModuleAnalysis(const Module &M) : M(&M) {
  // Ids are dense (below M.Bound), so the def table is a flat vector filled
  // with plain stores — this runs once per transformation attempt on both
  // the fuzzing and replay hot paths. Out-of-bound ids (only possible in a
  // module the validator will reject anyway) are ignored rather than
  // indexed.
  Defs.assign(M.Bound, DefInfo{});
  auto Set = [this](Id TheId, DefInfo Info) {
    if (TheId < Defs.size())
      Defs[TheId] = Info;
  };
  for (const Instruction &Inst : M.GlobalInsts)
    Set(Inst.Result,
        DefInfo{DefInfo::Kind::Global, InvalidId, InvalidId, 0, &Inst});
  Funcs.resize(M.Functions.size());
  for (size_t F = 0; F != Funcs.size(); ++F) {
    const Function &Func = M.Functions[F];
    Funcs[F].Func = &Func;
    Set(Func.Def.Result,
        DefInfo{DefInfo::Kind::FunctionDef, Func.id(), InvalidId, 0,
                &Func.Def});
    for (const Instruction &Param : Func.Params)
      Set(Param.Result,
          DefInfo{DefInfo::Kind::Param, Func.id(), InvalidId, 0, &Param});
    for (const BasicBlock &Block : Func.Blocks) {
      Set(Block.LabelId,
          DefInfo{DefInfo::Kind::Label, Func.id(), Block.LabelId,
                  static_cast<uint32_t>(Block.Body.size()), nullptr});
      for (uint32_t I = 0, E = static_cast<uint32_t>(Block.Body.size());
           I != E; ++I) {
        const Instruction &Inst = Block.Body[I];
        if (Inst.Result != InvalidId)
          Set(Inst.Result, DefInfo{DefInfo::Kind::Body, Func.id(),
                                   Block.LabelId, I, &Inst});
      }
    }
  }
}

size_t ModuleAnalysis::useCount(Id TheId) const {
  if (!UsesBuilt) {
    UsesBuilt = true;
    Uses.assign(M->Bound, 0);
    auto CountUses = [&](const Instruction &Inst) {
      Inst.forEachUsedId([&](Id Used) {
        if (Used < Uses.size())
          ++Uses[Used];
      });
    };
    for (const Instruction &Inst : M->GlobalInsts)
      CountUses(Inst);
    for (const Function &Func : M->Functions) {
      CountUses(Func.Def);
      for (const Instruction &Param : Func.Params)
        CountUses(Param);
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          CountUses(Inst);
    }
  }
  return TheId < Uses.size() ? Uses[TheId] : 0;
}

bool ModuleAnalysis::idAvailableBefore(Id ValueId, Id FuncId, Id BlockId,
                                       size_t InstIndex) const {
  const DefInfo *Info = defInfo(ValueId);
  if (!Info)
    return false;
  switch (Info->DefKind) {
  case DefInfo::Kind::None:
    return false; // unreachable: defInfo() filters empty slots
  case DefInfo::Kind::Global:
    return true;
  case DefInfo::Kind::FunctionDef:
  case DefInfo::Kind::Label:
    // Function ids and labels are not data values.
    return false;
  case DefInfo::Kind::Param:
    return Info->FuncId == FuncId;
  case DefInfo::Kind::Body:
    if (Info->FuncId != FuncId)
      return false;
    if (Info->BlockId == BlockId)
      return Info->Index < InstIndex;
    return domTree(FuncId).strictlyDominates(Info->BlockId, BlockId);
  }
  return false;
}

bool ModuleAnalysis::idAvailableAtEnd(Id ValueId, Id FuncId, Id BlockId) const {
  const DefInfo *Label = defInfo(BlockId);
  if (!Label || Label->DefKind != DefInfo::Kind::Label ||
      Label->FuncId != FuncId)
    return false;
  return idAvailableBefore(ValueId, FuncId, BlockId, Label->Index);
}

ModuleAnalysis::FuncAnalyses &ModuleAnalysis::funcAnalyses(Id FuncId) const {
  // Searched from the back, so a repeated function id resolves to its
  // last definition, as the def table does.
  for (size_t F = Funcs.size(); F-- != 0;)
    if (Funcs[F].Func->id() == FuncId)
      return Funcs[F];
  assert(false && "unknown function");
  std::abort();
}

const Cfg &ModuleAnalysis::cfg(Id FuncId) const {
  FuncAnalyses &Slot = funcAnalyses(FuncId);
  if (!Slot.Graph)
    Slot.Graph.emplace(*Slot.Func);
  return *Slot.Graph;
}

const DominatorTree &ModuleAnalysis::domTree(Id FuncId) const {
  FuncAnalyses &Slot = funcAnalyses(FuncId);
  if (!Slot.Dom)
    Slot.Dom.emplace(*Slot.Func, cfg(FuncId));
  return *Slot.Dom;
}

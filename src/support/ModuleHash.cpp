//===- support/ModuleHash.cpp - Structural module hashing ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// This file reads ir/Module.h and exec/Value.h as plain data (field and
// vector traversal only, no out-of-line ir functions), so spvfuzz_support
// stays link-independent of the libraries layered above it.
//
//===----------------------------------------------------------------------===//

#include "support/ModuleHash.h"

#include "exec/Value.h"
#include "ir/Module.h"

#include <cassert>

using namespace spvfuzz;

namespace {

void hashInstruction(StructuralHasher &H, const Instruction &Inst) {
  H.word(static_cast<uint64_t>(Inst.Opcode));
  H.word(Inst.ResultType);
  H.word(Inst.Result);
  H.word(Inst.Operands.size());
  for (const Operand &Op : Inst.Operands) {
    H.word(static_cast<uint64_t>(Op.OperandKind));
    H.word(Op.Word);
  }
}

void hashValue(StructuralHasher &H, const Value &V) {
  H.word(static_cast<uint64_t>(V.ValueKind));
  H.word(static_cast<uint64_t>(static_cast<uint32_t>(V.Scalar)));
  H.word(V.Elements.size());
  for (const Value &Element : V.Elements)
    hashValue(H, Element);
}

} // namespace

uint64_t spvfuzz::hashModule(const Module &M) {
  StructuralHasher H;
  H.word(M.EntryPointId);
  H.word(M.GlobalInsts.size());
  for (const Instruction &Inst : M.GlobalInsts)
    hashInstruction(H, Inst);
  H.word(M.Functions.size());
  for (const Function &Func : M.Functions) {
    hashInstruction(H, Func.Def);
    H.word(Func.Params.size());
    for (const Instruction &Param : Func.Params)
      hashInstruction(H, Param);
    H.word(Func.Blocks.size());
    for (const BasicBlock &Block : Func.Blocks) {
      H.word(Block.LabelId);
      H.word(Block.Body.size());
      for (const Instruction &Inst : Block.Body)
        hashInstruction(H, Inst);
    }
  }
  return H.digest();
}

uint64_t spvfuzz::hashModuleOr(const Module &M,
                               std::optional<uint64_t> Known) {
  assert((!Known || *Known == hashModule(M)) &&
         "supplied module hash does not match the module");
  return Known ? *Known : hashModule(M);
}

uint64_t spvfuzz::hashShaderInput(const ShaderInput &Input) {
  StructuralHasher H;
  H.word(Input.Bindings.size());
  for (const auto &[Binding, V] : Input.Bindings) {
    H.word(Binding);
    hashValue(H, V);
  }
  return H.digest();
}

//===- analysis/Validator.cpp - MiniSPV module validation -----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"

#include "analysis/ModuleAnalysis.h"
#include "ir/Text.h"

#include <memory>
#include <sstream>
#include <unordered_set>

using namespace spvfuzz;

namespace {

class ValidatorImpl {
public:
  explicit ValidatorImpl(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    checkIds();
    if (!Diags.empty())
      return Diags; // id table is broken; later checks would be noise
    Analysis = std::make_unique<ModuleAnalysis>(M);
    for (const Instruction &Global : M.GlobalInsts) {
      if (Global.Opcode == Op::TypeBool)
        BoolType = Global.Result;
      if (Global.Opcode == Op::TypeInt)
        IntType = Global.Result;
    }
    checkEntryPoint();
    checkGlobals();
    for (const Function &Func : M.Functions)
      checkFunction(Func);
    return Diags;
  }

private:
  void error(const std::string &Message) { Diags.push_back(Message); }

  // Built with append rather than `"%" + std::to_string(...)`: inserting
  // into the rvalue temporary trips GCC 12's -Wrestrict false positive
  // (PR105651) under -Werror.
  std::string idStr(Id TheId) {
    std::string S("%");
    S += std::to_string(TheId);
    return S;
  }

  // --- Id uniqueness and bound -------------------------------------------

  void defineId(Id TheId, const char *What) {
    if (TheId == InvalidId) {
      error(std::string(What) + " with invalid id 0");
      return;
    }
    if (TheId >= M.Bound)
      error(idStr(TheId) + " exceeds module bound");
    if (!SeenIds.insert(TheId).second)
      error("duplicate definition of " + idStr(TheId));
  }

  void checkIds() {
    for (const Instruction &Inst : M.GlobalInsts)
      defineId(Inst.Result, "global");
    for (const Function &Func : M.Functions) {
      defineId(Func.Def.Result, "function");
      for (const Instruction &Param : Func.Params)
        defineId(Param.Result, "parameter");
      for (const BasicBlock &Block : Func.Blocks) {
        defineId(Block.LabelId, "label");
        for (const Instruction &Inst : Block.Body)
          if (Inst.Result != InvalidId)
            defineId(Inst.Result, "instruction");
      }
    }
  }

  // --- Entry point ---------------------------------------------------------

  void checkEntryPoint() {
    const Function *Entry = M.findFunction(M.EntryPointId);
    if (!Entry) {
      error("entry point " + idStr(M.EntryPointId) + " is not a function");
      return;
    }
    if (!typeIdHasOpcode(Entry->returnTypeId(), Op::TypeVoid))
      error("entry point must return void");
    if (!Entry->Params.empty())
      error("entry point must have no parameters");
  }

  // --- Global section ------------------------------------------------------

  // All def/type queries go through the analysis's O(1) def index (the
  // module is constant for the lifetime of a validation run); results are
  // identical to the Module::findDef-based queries, only cheaper.
  bool isTypeId(Id TheId) {
    const Instruction *Def = Analysis->def(TheId);
    return Def && isTypeDecl(Def->Opcode);
  }

  bool isConstantId(Id TheId) {
    const Instruction *Def = Analysis->def(TheId);
    return Def && isConstantDecl(Def->Opcode);
  }

  bool typeIdHasOpcode(Id TypeId, Op Opcode) {
    const Instruction *Def = Analysis->def(TypeId);
    return Def && Def->Opcode == Opcode;
  }

  std::pair<StorageClass, Id> pointerInfo(Id PointerTypeId) {
    const Instruction *Def = Analysis->def(PointerTypeId);
    assert(Def && Def->Opcode == Op::TypePointer && "not a pointer type");
    return {static_cast<StorageClass>(Def->literalOperand(0)),
            Def->idOperand(1)};
  }

  void checkGlobals() {
    std::unordered_set<Id> DefinedSoFar;
    for (const Instruction &Inst : M.GlobalInsts) {
      // Globals may only reference globals defined earlier in the section.
      bool ForwardRef = false;
      Inst.forEachUsedId([&](Id Used) {
        if (DefinedSoFar.count(Used) == 0)
          ForwardRef = true;
      });
      if (ForwardRef)
        error("global " + idStr(Inst.Result) +
              " references an id not yet defined in the global section");
      DefinedSoFar.insert(Inst.Result);

      switch (Inst.Opcode) {
      case Op::TypeVoid:
      case Op::TypeBool:
        break;
      case Op::TypeInt:
        if (Inst.Operands.size() != 1 || Inst.literalOperand(0) != 32)
          error("OpTypeInt must have width 32");
        break;
      case Op::TypeVector: {
        if (Inst.Operands.size() != 2) {
          error("OpTypeVector expects 2 operands");
          break;
        }
        Id Component = Inst.idOperand(0);
        if (!typeIdHasOpcode(Component, Op::TypeInt) &&
            !typeIdHasOpcode(Component, Op::TypeBool))
          error("vector component type must be scalar");
        uint32_t Count = Inst.literalOperand(1);
        if (Count < 2 || Count > 4)
          error("vector size must be in [2, 4]");
        break;
      }
      case Op::TypeStruct:
        for (const Operand &Member : Inst.Operands)
          if (!Member.isId() || !isTypeId(Member.asId()) ||
              typeIdHasOpcode(Member.asId(), Op::TypePointer))
            error("struct members must be non-pointer types");
        break;
      case Op::TypePointer:
        if (Inst.Operands.size() != 2 || !Inst.Operands[0].isLiteral() ||
            !isTypeId(Inst.idOperand(1)))
          error("malformed OpTypePointer");
        else if (typeIdHasOpcode(Inst.idOperand(1), Op::TypePointer))
          error("pointers to pointers are not supported");
        break;
      case Op::TypeFunction:
        for (const Operand &Op : Inst.Operands)
          if (!Op.isId() || !isTypeId(Op.asId()))
            error("malformed OpTypeFunction");
        break;
      case Op::ConstantTrue:
      case Op::ConstantFalse:
        if (!typeIdHasOpcode(Inst.ResultType, Op::TypeBool))
          error("boolean constant must have bool type");
        break;
      case Op::Constant:
        if (!typeIdHasOpcode(Inst.ResultType, Op::TypeInt) ||
            Inst.Operands.size() != 1 ||
            !Inst.Operands[0].isLiteral())
          error("malformed OpConstant");
        break;
      case Op::ConstantComposite:
        checkCompositeConstant(Inst);
        break;
      case Op::Variable:
        checkGlobalVariable(Inst);
        break;
      default:
        error("opcode not allowed in global section: " +
              std::string(opName(Inst.Opcode)));
      }
    }
  }

  void checkCompositeConstant(const Instruction &Inst) {
    std::vector<Id> MemberTypes;
    if (!compositeMemberTypes(Inst.ResultType, MemberTypes)) {
      error("OpConstantComposite result type must be vector or struct");
      return;
    }
    if (Inst.Operands.size() != MemberTypes.size()) {
      error("OpConstantComposite component count mismatch");
      return;
    }
    for (size_t I = 0; I != MemberTypes.size(); ++I) {
      Id Component = Inst.idOperand(I);
      if (!isConstantId(Component) || typeOf(Component) != MemberTypes[I])
        error("OpConstantComposite component " + std::to_string(I) +
              " has wrong type or is not a constant");
    }
  }

  void checkGlobalVariable(const Instruction &Inst) {
    if (Inst.Operands.empty() || !Inst.Operands[0].isLiteral()) {
      error("malformed OpVariable");
      return;
    }
    auto SC = static_cast<StorageClass>(Inst.literalOperand(0));
    if (SC == StorageClass::Function) {
      error("Function-storage variable in global section");
      return;
    }
    if (!typeIdHasOpcode(Inst.ResultType, Op::TypePointer)) {
      error("OpVariable result type must be a pointer");
      return;
    }
    auto [PtrSC, Pointee] = pointerInfo(Inst.ResultType);
    if (PtrSC != SC)
      error("variable/pointer storage class mismatch");
    switch (SC) {
    case StorageClass::Uniform:
    case StorageClass::Output:
      if (Inst.Operands.size() != 2 || !Inst.Operands[1].isLiteral())
        error("Uniform/Output variable needs a binding/location literal");
      break;
    case StorageClass::Private:
      if (Inst.Operands.size() == 2) {
        Id Init = Inst.idOperand(1);
        if (!isConstantId(Init) || typeOf(Init) != Pointee)
          error("bad Private variable initializer");
      } else if (Inst.Operands.size() != 1) {
        error("malformed Private variable");
      }
      break;
    case StorageClass::Function:
      break;
    }
  }

  /// Fills \p Out with the member types of a vector or struct type.
  bool compositeMemberTypes(Id TypeId, std::vector<Id> &Out) {
    const Instruction *Def = Analysis->def(TypeId);
    if (!Def)
      return false;
    if (Def->Opcode == Op::TypeVector) {
      Out.assign(Def->literalOperand(1), Def->idOperand(0));
      return true;
    }
    if (Def->Opcode == Op::TypeStruct) {
      for (const Operand &Op : Def->Operands)
        Out.push_back(Op.asId());
      return true;
    }
    return false;
  }

  // --- Functions -----------------------------------------------------------

  void checkFunction(const Function &Func) {
    std::string Where = "function " + idStr(Func.id()) + ": ";
    const Instruction *FuncType = Analysis->def(Func.functionTypeId());
    if (!FuncType || FuncType->Opcode != Op::TypeFunction) {
      error(Where + "bad function type");
      return;
    }
    if (FuncType->idOperand(0) != Func.returnTypeId())
      error(Where + "return type disagrees with function type");
    if (FuncType->Operands.size() - 1 != Func.Params.size())
      error(Where + "parameter count disagrees with function type");
    else
      for (size_t I = 0; I != Func.Params.size(); ++I)
        if (Func.Params[I].ResultType != FuncType->idOperand(I + 1))
          error(Where + "parameter " + std::to_string(I) + " type mismatch");

    if (Func.Blocks.empty()) {
      error(Where + "function has no blocks");
      return;
    }

    const Cfg &Graph = Analysis->cfg(Func.id());
    const DominatorTree &Dom = Analysis->domTree(Func.id());

    // The entry block may not be a branch target.
    if (!Graph.predecessors(Func.entryBlock().LabelId).empty())
      error(Where + "entry block has predecessors");

    // Layout rule: a block's immediate dominator must precede it.
    for (size_t I = 1; I < Func.Blocks.size(); ++I) {
      Id Block = Func.Blocks[I].LabelId;
      if (!Graph.isReachable(Block))
        continue;
      Id Idom = Dom.immediateDominator(Block);
      auto IdomIndex = Func.blockIndex(Idom);
      if (!IdomIndex || *IdomIndex >= I)
        error(Where + "block " + idStr(Block) +
              " appears before its dominator");
    }

    for (const BasicBlock &Block : Func.Blocks)
      checkBlock(Func, Block, Graph);
  }

  void checkBlock(const Function &Func, const BasicBlock &Block,
                  const Cfg &Graph) {
    std::string Where = "block " + idStr(Block.LabelId) + ": ";
    if (Block.Body.empty() || !isTerminator(Block.Body.back().Opcode)) {
      error(Where + "missing terminator");
      return;
    }
    bool SeenNonPhi = false;
    bool SeenNonLeading = false;
    for (size_t I = 0, E = Block.Body.size(); I != E; ++I) {
      const Instruction &Inst = Block.Body[I];
      if (isTerminator(Inst.Opcode) && I + 1 != E)
        error(Where + "terminator in the middle of a block");
      if (Inst.Opcode == Op::Phi) {
        if (SeenNonPhi)
          error(Where + "phi after non-phi instruction");
      } else {
        SeenNonPhi = true;
      }
      if (Inst.Opcode == Op::Variable) {
        if (&Block != &Func.entryBlock())
          error(Where + "local variable outside the entry block");
        if (SeenNonLeading)
          error(Where + "local variable after general instructions");
      } else if (Inst.Opcode != Op::Phi) {
        SeenNonLeading = true;
      }
      checkInstruction(Func, Block, I, Graph);
    }
  }

  Id typeOf(Id ValueId) {
    const Instruction *Def = Analysis->def(ValueId);
    return Def ? Def->ResultType : InvalidId;
  }

  void checkValueOperand(const std::string &Where, const Function &Func,
                         const BasicBlock &Block, size_t Index, Id ValueId) {
    const ModuleAnalysis::DefInfo *Info = Analysis->defInfo(ValueId);
    if (!Info) {
      error(Where + "use of undefined id " + idStr(ValueId));
      return;
    }
    // Uses inside statically unreachable blocks are exempt from the
    // dominance rule (they can never execute) but must still name values.
    if (!Analysis->cfg(Func.id()).isReachable(Block.LabelId))
      return;
    if (!Analysis->idAvailableBefore(ValueId, Func.id(), Block.LabelId, Index))
      error(Where + "id " + idStr(ValueId) + " is not available here");
  }

  void checkLabelOperand(const std::string &Where, const Function &Func,
                         Id LabelId) {
    const BasicBlock *Target = Func.findBlock(LabelId);
    if (!Target)
      error(Where + "branch to unknown block " + idStr(LabelId));
    else if (Target == &Func.entryBlock())
      error(Where + "branch to the entry block");
  }

  void checkInstruction(const Function &Func, const BasicBlock &Block,
                        size_t Index, const Cfg &Graph) {
    const Instruction &Inst = Block.Body[Index];
    std::string Where = std::string(opName(Inst.Opcode)) + " in block " +
                        idStr(Block.LabelId) + ": ";

    if (hasResultType(Inst.Opcode) && !isTypeId(Inst.ResultType)) {
      error(Where + "result type is not a type");
      return;
    }

    auto RequireOperands = [&](size_t Count) {
      if (Inst.Operands.size() != Count) {
        error(Where + "expected " + std::to_string(Count) + " operands");
        return false;
      }
      return true;
    };
    auto RequireValue = [&](size_t OpIndex, Id ExpectedType) {
      if (!Inst.Operands[OpIndex].isId()) {
        error(Where + "operand " + std::to_string(OpIndex) +
              " must be an id");
        return;
      }
      Id ValueId = Inst.idOperand(OpIndex);
      checkValueOperand(Where, Func, Block, Index, ValueId);
      if (ExpectedType != InvalidId && typeOf(ValueId) != ExpectedType)
        error(Where + "operand " + std::to_string(OpIndex) +
              " has the wrong type");
    };

    switch (Inst.Opcode) {
    case Op::Variable: {
      if (Inst.Operands.empty() || !Inst.Operands[0].isLiteral() ||
          static_cast<StorageClass>(Inst.literalOperand(0)) !=
              StorageClass::Function) {
        error(Where + "local variables must have Function storage");
        break;
      }
      if (!typeIdHasOpcode(Inst.ResultType, Op::TypePointer)) {
        error(Where + "variable result type must be a pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(Inst.ResultType);
      if (SC != StorageClass::Function)
        error(Where + "pointer storage class mismatch");
      if (Inst.Operands.size() == 2) {
        Id Init = Inst.idOperand(1);
        if (!isConstantId(Init) || typeOf(Init) != Pointee)
          error(Where + "bad local variable initializer");
      } else if (Inst.Operands.size() != 1) {
        error(Where + "malformed local variable");
      }
      break;
    }
    case Op::Load: {
      if (!RequireOperands(1))
        break;
      Id Pointer = Inst.idOperand(0);
      checkValueOperand(Where, Func, Block, Index, Pointer);
      Id PtrType = typeOf(Pointer);
      if (!typeIdHasOpcode(PtrType, Op::TypePointer)) {
        error(Where + "load from non-pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(PtrType);
      if (SC == StorageClass::Output)
        error(Where + "load from Output variable");
      if (Pointee != Inst.ResultType)
        error(Where + "load result type mismatch");
      break;
    }
    case Op::Store: {
      if (!RequireOperands(2))
        break;
      Id Pointer = Inst.idOperand(0);
      checkValueOperand(Where, Func, Block, Index, Pointer);
      Id PtrType = typeOf(Pointer);
      if (!typeIdHasOpcode(PtrType, Op::TypePointer)) {
        error(Where + "store to non-pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(PtrType);
      if (SC == StorageClass::Uniform)
        error(Where + "store to Uniform variable");
      RequireValue(1, Pointee);
      break;
    }
    case Op::IAdd:
    case Op::ISub:
    case Op::IMul:
    case Op::SDiv:
    case Op::SMod:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != IntType)
        error(Where + "integer op with non-integer result");
      RequireValue(0, IntType);
      RequireValue(1, IntType);
      break;
    case Op::SNegate:
      if (!RequireOperands(1))
        break;
      if (Inst.ResultType != IntType)
        error(Where + "SNegate with non-integer result");
      RequireValue(0, IntType);
      break;
    case Op::LogicalAnd:
    case Op::LogicalOr:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != BoolType)
        error(Where + "logical op with non-bool result");
      RequireValue(0, BoolType);
      RequireValue(1, BoolType);
      break;
    case Op::LogicalNot:
      if (!RequireOperands(1))
        break;
      if (Inst.ResultType != BoolType)
        error(Where + "LogicalNot with non-bool result");
      RequireValue(0, BoolType);
      break;
    case Op::IEqual:
    case Op::INotEqual:
    case Op::SLessThan:
    case Op::SLessThanEqual:
    case Op::SGreaterThan:
    case Op::SGreaterThanEqual:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != BoolType)
        error(Where + "comparison with non-bool result");
      RequireValue(0, IntType);
      RequireValue(1, IntType);
      break;
    case Op::Select:
      if (!RequireOperands(3))
        break;
      RequireValue(0, BoolType);
      RequireValue(1, Inst.ResultType);
      RequireValue(2, Inst.ResultType);
      break;
    case Op::CopyObject:
      if (!RequireOperands(1))
        break;
      RequireValue(0, Inst.ResultType);
      break;
    case Op::CompositeConstruct: {
      std::vector<Id> MemberTypes;
      if (!compositeMemberTypes(Inst.ResultType, MemberTypes)) {
        error(Where + "result type must be vector or struct");
        break;
      }
      if (Inst.Operands.size() != MemberTypes.size()) {
        error(Where + "component count mismatch");
        break;
      }
      for (size_t I = 0; I != MemberTypes.size(); ++I)
        RequireValue(I, MemberTypes[I]);
      break;
    }
    case Op::CompositeExtract: {
      if (Inst.Operands.size() < 2 || !Inst.Operands[0].isId()) {
        error(Where + "malformed CompositeExtract");
        break;
      }
      Id Composite = Inst.idOperand(0);
      checkValueOperand(Where, Func, Block, Index, Composite);
      Id CurrentType = typeOf(Composite);
      for (size_t I = 1; I < Inst.Operands.size(); ++I) {
        if (!Inst.Operands[I].isLiteral()) {
          error(Where + "extract indices must be literals");
          CurrentType = InvalidId;
          break;
        }
        std::vector<Id> MemberTypes;
        if (!compositeMemberTypes(CurrentType, MemberTypes) ||
            Inst.literalOperand(I) >= MemberTypes.size()) {
          error(Where + "extract index out of range");
          CurrentType = InvalidId;
          break;
        }
        CurrentType = MemberTypes[Inst.literalOperand(I)];
      }
      if (CurrentType != InvalidId && CurrentType != Inst.ResultType)
        error(Where + "extract result type mismatch");
      break;
    }
    case Op::Phi: {
      if (Inst.Operands.size() % 2 != 0 || Inst.Operands.empty()) {
        error(Where + "phi needs (value, predecessor) pairs");
        break;
      }
      if (!Graph.isReachable(Block.LabelId))
        break;
      std::span<const Id> Preds = Graph.predecessors(Block.LabelId);
      std::unordered_set<Id> PredSet(Preds.begin(), Preds.end());
      std::unordered_set<Id> SeenPreds;
      for (size_t I = 0; I < Inst.Operands.size(); I += 2) {
        if (!Inst.Operands[I].isId() || !Inst.Operands[I + 1].isId()) {
          error(Where + "phi operands must be ids");
          continue;
        }
        Id Value = Inst.idOperand(I);
        Id Pred = Inst.idOperand(I + 1);
        if (PredSet.count(Pred) == 0)
          error(Where + idStr(Pred) + " is not a predecessor");
        if (!SeenPreds.insert(Pred).second)
          error(Where + "duplicate phi predecessor " + idStr(Pred));
        if (typeOf(Value) != Inst.ResultType)
          error(Where + "phi value type mismatch");
        if (!Analysis->idAvailableAtEnd(Value, Func.id(), Pred))
          error(Where + "phi value " + idStr(Value) +
                " unavailable at end of " + idStr(Pred));
      }
      if (SeenPreds.size() != PredSet.size())
        error(Where + "phi does not cover all predecessors");
      break;
    }
    case Op::Branch:
      if (!RequireOperands(1))
        break;
      checkLabelOperand(Where, Func, Inst.idOperand(0));
      break;
    case Op::BranchConditional:
      if (!RequireOperands(3))
        break;
      RequireValue(0, BoolType);
      checkLabelOperand(Where, Func, Inst.idOperand(1));
      checkLabelOperand(Where, Func, Inst.idOperand(2));
      break;
    case Op::Return:
      if (!typeIdHasOpcode(Func.returnTypeId(), Op::TypeVoid))
        error(Where + "value-returning function returns void");
      break;
    case Op::ReturnValue:
      if (!RequireOperands(1))
        break;
      RequireValue(0, Func.returnTypeId());
      break;
    case Op::Kill:
      break;
    case Op::FunctionCall: {
      if (Inst.Operands.empty() || !Inst.Operands[0].isId()) {
        error(Where + "malformed call");
        break;
      }
      const Function *Callee = M.findFunction(Inst.idOperand(0));
      if (!Callee) {
        error(Where + "call to non-function");
        break;
      }
      if (Callee->returnTypeId() != Inst.ResultType)
        error(Where + "call result type mismatch");
      if (Inst.Operands.size() - 1 != Callee->Params.size()) {
        error(Where + "call argument count mismatch");
        break;
      }
      for (size_t I = 1; I < Inst.Operands.size(); ++I)
        RequireValue(I, Callee->Params[I - 1].ResultType);
      break;
    }
    default:
      error(Where + "opcode not allowed in a function body");
    }
  }

  const Module &M;
  Id BoolType = InvalidId;
  Id IntType = InvalidId;
  std::unique_ptr<ModuleAnalysis> Analysis;
  std::unordered_set<Id> SeenIds;
  std::vector<std::string> Diags;
};

} // namespace

std::vector<std::string> spvfuzz::validateModule(const Module &M) {
  return ValidatorImpl(M).run();
}

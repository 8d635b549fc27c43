//===- tests/OptBugTriggersTest.cpp - Injected-bug trigger tests ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For each injected bug: a module exhibiting the trigger feature crashes
/// the hosting pass with the expected signature (or is miscompiled), and
/// the same module passes cleanly with the bug disabled. These are the
/// ground-truth bugs the whole evaluation counts.
///
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "opt/Passes.h"
#include "support/ModuleHash.h"
#include "TestHelpers.h"

#include <algorithm>

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

/// Runs \p Pass twice: with \p Point enabled expecting the signature, and
/// with no bugs expecting a clean, valid, equivalent result.
void expectTriggerAndCleanRun(const Module &M, const ShaderInput &Input,
                              OptPassKind Pass, BugPoint Point) {
  {
    Module Copy = M;
    PassCrash Crash = runOptPass(Pass, Copy, BugHost({Point}));
    ASSERT_TRUE(Crash.has_value())
        << optPassName(Pass) << " did not trigger " << bugSignature(Point);
    EXPECT_EQ(*Crash, bugSignature(Point));
  }
  {
    Module Copy = M;
    PassCrash Crash = runOptPass(Pass, Copy, BugHost());
    EXPECT_FALSE(Crash.has_value());
    expectValidAndEquivalent(M, Copy, Input);
  }
}

/// Fixture + dead block (with fact) reached from the then-block.
struct DeadBlockFixture {
  Fixture F;
  FactManager Facts;
  Id Dead;

  DeadBlockFixture() {
    ModuleBuilder Builder(F.M);
    Id TrueConst = Builder.getBoolConstant(true);
    Dead = F.M.takeFreshId();
    TransformationAddDeadBlock Add(Dead, F.ThenBlock, TrueConst);
    ModuleAnalysis Analysis(F.M);
    EXPECT_TRUE(Add.isApplicable(F.M, Analysis, Facts));
    Add.apply(F.M, Facts);
  }
};

TEST(BugTriggers, KillObstructsMerge) {
  DeadBlockFixture D;
  TransformationReplaceBranchWithKill Kill(D.Dead);
  ASSERT_TRUE(applyIfApplicable(D.F.M, D.Facts, Kill));
  expectTriggerAndCleanRun(D.F.M, D.F.Input, OptPassKind::SimplifyCfg,
                           BugPoint::CrashKillObstructsMerge);
}

TEST(BugTriggers, KillInCalleeIsAFrontendCrash) {
  Fixture F;
  Module M = F.M;
  // Put a kill in the helper (a non-entry function).
  BasicBlock *Helper = M.findFunction(F.HelperId)->findBlock(F.HelperBlock);
  Helper->Body.back() = ModuleBuilder::makeKill();
  ASSERT_TRUE(isValidModule(M));
  Module Copy = M;
  PassCrash Crash = runOptPass(OptPassKind::FrontendCheck, Copy,
                               BugHost({BugPoint::CrashKillInCallee}));
  ASSERT_TRUE(Crash.has_value());
  EXPECT_EQ(*Crash, bugSignature(BugPoint::CrashKillInCallee));
  // A kill in the *entry* function does not trigger it.
  Module M2 = F.M;
  M2.findFunction(F.MainId)->findBlock(F.MergeBlock)->Body.back() =
      ModuleBuilder::makeKill();
  PassCrash NoCrash = runOptPass(OptPassKind::FrontendCheck, M2,
                                 BugHost({BugPoint::CrashKillInCallee}));
  EXPECT_FALSE(NoCrash.has_value());
}

TEST(BugTriggers, DeadStoreToModuleScope) {
  DeadBlockFixture D;
  Module &M = D.F.M;
  ModuleBuilder Builder(M);
  Id PrivatePtr = Builder.getPointerType(StorageClass::Private, D.F.IntType);
  Id G = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, D.Facts, TransformationAddGlobalVariable(G, PrivatePtr, InvalidId)));
  const BasicBlock *Dead = M.findFunction(D.F.MainId)->findBlock(D.Dead);
  ASSERT_TRUE(applyIfApplicable(
      M, D.Facts,
      TransformationAddStore(G, D.F.Const5,
                             describeInstruction(*Dead, 0))));
  expectTriggerAndCleanRun(M, D.F.Input, OptPassKind::DeadBranchElim,
                           BugPoint::CrashDeadStoreToModuleScope);
}

TEST(BugTriggers, DontInlineAttribute) {
  Fixture F;
  Module M = F.M;
  M.findFunction(F.HelperId)->setControlMask(FC_DontInline);
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::Inliner,
                           BugPoint::CrashDontInlineAttribute);
}

TEST(BugTriggers, WideCallArity) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Grow the helper to four parameters.
  for (int I = 0; I < 3; ++I) {
    const Function *Helper = M.findFunction(F.HelperId);
    std::vector<Id> Signature;
    for (const Instruction &Param : Helper->Params)
      Signature.push_back(Param.ResultType);
    Signature.push_back(F.IntType);
    Id NewType = M.takeFreshId();
    ASSERT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddTypeFunction(NewType, F.IntType, Signature)));
    ASSERT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddParameter(F.HelperId, M.takeFreshId(), F.IntType,
                                   NewType, F.Const2)));
  }
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::Inliner,
                           BugPoint::CrashWideCallArity);
}

TEST(BugTriggers, CopyChainValueNumbering) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  InstructionDescriptor Where = describeInstruction(*Merge, 1);
  Id Copy1 = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddSynonymViaCopyObject(Copy1, LoadL, Where)));
  Id Copy2 = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddSynonymViaCopyObject(Copy2, Copy1, Where)));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::LocalCSE,
                           BugPoint::CrashCopyChainValueNumbering);
}

TEST(BugTriggers, PhiManyPredecessors) {
  // Build a three-predecessor merge via two dead blocks over a phi.
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // First create a phi in the merge block by propagating the load up.
  Id FreshThen = M.takeFreshId(), FreshElse = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationPropagateInstructionUp(
          F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse})));
  // Then give the merge block a third predecessor via a dead block on the
  // then edge.
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Id Dead = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddDeadBlock(Dead, F.ThenBlock, TrueConst)));
  const Instruction &Phi =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock)->Body[0];
  ASSERT_EQ(Phi.Opcode, Op::Phi);
  ASSERT_EQ(Phi.Operands.size() / 2, 3u);
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::BlockLayout,
                           BugPoint::CrashPhiManyPredecessors);
}

TEST(BugTriggers, CompositeFoldAndUnusedComposite) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id Vec2 = Builder.getVectorType(F.IntType, 2);
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  InstructionDescriptor Where = describeInstruction(*Merge, 1);
  Id Composite = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationCompositeConstruct(Composite, Vec2, {LoadL, F.Const5},
                                       Where)));
  // Unused construct: DCE bug triggers.
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::Dce,
                           BugPoint::CrashUnusedComposite);
  // Add an extract: ConstantFold bug triggers.
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationCompositeExtract(M.takeFreshId(), Composite, 1, Where)));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::ConstantFold,
                           BugPoint::CrashCompositeFold);
}

TEST(BugTriggers, PointerCopyAlias) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Copy the local's pointer and store through the copy.
  const BasicBlock *Else = M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  InstructionDescriptor Where = describeInstruction(*Else, 0);
  Id PtrCopy = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddSynonymViaCopyObject(PtrCopy, F.LocalL, Where)));
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationReplaceIdWithSynonym(
                    describeInstruction(
                        *M.findFunction(F.MainId)->findBlock(F.ElseBlock), 1),
                    0, PtrCopy)));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::LoadStoreForwarding,
                           BugPoint::CrashPointerCopyAlias);
}

TEST(BugTriggers, TrivialPhiIsAFrontendCrash) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Inline the helper call: single return produces a single-entry phi.
  const Function *Helper = M.findFunction(F.HelperId);
  std::vector<uint32_t> IdMap;
  for (const BasicBlock &Block : Helper->Blocks) {
    IdMap.push_back(Block.LabelId);
    IdMap.push_back(M.takeFreshId());
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId) {
        IdMap.push_back(Inst.Result);
        IdMap.push_back(M.takeFreshId());
      }
  }
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationInlineFunction(describeInstruction(*Then, 0),
                                   M.takeFreshId(), IdMap)));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::FrontendCheck,
                           BugPoint::CrashTrivialPhi);
}

TEST(BugTriggers, EqualTargetBranch) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id FalseConst = Builder.getBoolConstant(false);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationReplaceBranchWithConditional(F.ElseBlock, FalseConst,
                                                 false)));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::DeadBranchElim,
                           BugPoint::CrashEqualTargetBranch);
}

TEST(BugTriggers, StoreToPrivateGlobal) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id PrivatePtr = Builder.getPointerType(StorageClass::Private, F.IntType);
  Id G = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddGlobalVariable(G, PrivatePtr, InvalidId)));
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddStore(G, F.Const5, describeInstruction(*Merge, 1))));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::DeadStoreElim,
                           BugPoint::CrashStoreToPrivateGlobal);
}

TEST(BugTriggers, UnusedCallResultAndFunctionLimit) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.addLiveSafeFunction(F.HelperId); // pretend, for call insertion
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddFunctionCall(M.takeFreshId(), F.HelperId, {F.Const5},
                                    describeInstruction(*Merge, 0))));
  {
    Module Copy = M;
    PassCrash Crash = runOptPass(OptPassKind::FrontendCheck, Copy,
                                 BugHost({BugPoint::CrashUnusedCallResult}));
    ASSERT_TRUE(Crash.has_value());
    EXPECT_EQ(*Crash, bugSignature(BugPoint::CrashUnusedCallResult));
  }
  // The function-limit bug needs five functions; the fixture has two.
  {
    Module Copy = M;
    PassCrash Crash = runOptPass(OptPassKind::FrontendCheck, Copy,
                                 BugHost({BugPoint::CrashModuleFunctionLimit}));
    EXPECT_FALSE(Crash.has_value());
  }
}

TEST(BugTriggers, NegatedConstantBranch) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id FalseConst = Builder.getBoolConstant(false);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationReplaceBranchWithConditional(F.ElseBlock, FalseConst,
                                                 false)));
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationInvertBranchCondition(F.ElseBlock, M.takeFreshId())));
  expectTriggerAndCleanRun(M, F.Input, OptPassKind::FrontendCheck,
                           BugPoint::CrashNegatedConstantBranch);
}

//===----------------------------------------------------------------------===//
// Miscompilation bugs: wrong results, not crashes
//===----------------------------------------------------------------------===//

TEST(MiscompileBugs, UniformBranchFoldChangesBehaviour) {
  // A branch on a loaded boolean uniform (true at runtime) gets folded to
  // the false edge.
  Fixture F;
  Module M = F.M;
  // Rewrite main's condition to branch on the bool uniform directly.
  BasicBlock *Entry = &M.findFunction(F.MainId)->entryBlock();
  Id LoadK = M.takeFreshId();
  Entry->Body.insert(Entry->Body.end() - 1,
                     ModuleBuilder::makeLoad(F.BoolType, LoadK, F.U1));
  Entry->Body.back() =
      ModuleBuilder::makeBranchConditional(LoadK, F.ThenBlock, F.ElseBlock);
  ASSERT_TRUE(isValidModule(M));
  ExecResult Honest = interpret(M, F.Input);
  ASSERT_EQ(Honest.Outputs.at(0), Value::makeInt(10)); // then branch

  Module Buggy = M;
  PassCrash Crash =
      runOptPass(OptPassKind::DeadBranchElim, Buggy,
                 BugHost({BugPoint::MiscompileUniformBranchFold}));
  EXPECT_FALSE(Crash.has_value());
  ExecResult Broken = interpret(Buggy, F.Input);
  EXPECT_EQ(Broken.Outputs.at(0), Value::makeInt(5)); // forced else branch
  // With the bug disabled the pass leaves the branch alone.
  Module Clean = M;
  runOptPass(OptPassKind::DeadBranchElim, Clean, BugHost());
  EXPECT_EQ(interpret(Clean, F.Input), Honest);
}

TEST(MiscompileBugs, PhiLayoutOrderShufflesValues) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Create a phi whose operand order (then, else) disagrees with the
  // layout pass's reverse postorder (which visits else before then).
  Id FreshThen = M.takeFreshId(), FreshElse = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationPropagateInstructionUp(
          F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse})));
  ExecResult Honest = interpret(M, F.Input);

  Module Buggy = M;
  runOptPass(OptPassKind::BlockLayout, Buggy,
             BugHost({BugPoint::MiscompilePhiLayoutOrder}));
  // The phi's values got rebound positionally: different result.
  EXPECT_NE(interpret(Buggy, F.Input), Honest);
  Module Clean = M;
  runOptPass(OptPassKind::BlockLayout, Clean, BugHost());
  EXPECT_EQ(interpret(Clean, F.Input), Honest);
}

TEST(MiscompileBugs, AliasBlindForwardingUsesStaleValue) {
  // store L, a; store copy(L), b; load L — the alias-blind pass forwards a.
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id PtrCopy = M.takeFreshId();
  Id PtrType = M.typeOfId(F.LocalL);
  std::vector<Instruction> Prefix = {
      ModuleBuilder::makeStore(F.LocalL, F.Const2),
      ModuleBuilder::makeUnaryOp(Op::CopyObject, PtrType, PtrCopy, F.LocalL),
      ModuleBuilder::makeStore(PtrCopy, F.Const3),
  };
  Merge->Body.insert(Merge->Body.begin(), Prefix.begin(), Prefix.end());
  ASSERT_TRUE(isValidModule(M));
  ExecResult Honest = interpret(M, F.Input);
  ASSERT_EQ(Honest.Outputs.at(0), Value::makeInt(3));

  Module Buggy = M;
  runOptPass(OptPassKind::LoadStoreForwarding, Buggy,
             BugHost({BugPoint::MiscompileAliasBlindForward}));
  ExecResult Broken = interpret(Buggy, F.Input);
  EXPECT_EQ(Broken.Outputs.at(0), Value::makeInt(2)); // stale value
  Module Clean = M;
  runOptPass(OptPassKind::LoadStoreForwarding, Clean, BugHost());
  EXPECT_EQ(interpret(Clean, F.Input), Honest);
}

//===----------------------------------------------------------------------===//
// Honest pass behaviours (bugs disabled)
//===----------------------------------------------------------------------===//

TEST(OptBehaviour, ConstantFoldFoldsArithmetic) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id Sum = M.takeFreshId();
  Merge->Body.insert(Merge->Body.begin() + 1,
                     ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, Sum,
                                              F.Const2, F.Const3));
  Merge->Body[2] = ModuleBuilder::makeStore(F.Out, Sum);
  ASSERT_TRUE(isValidModule(M));
  runOptPass(OptPassKind::ConstantFold, M, BugHost());
  // The add became a copy of a constant 5.
  const Instruction &Folded =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock)->Body[1];
  EXPECT_EQ(Folded.Opcode, Op::CopyObject);
  EXPECT_EQ(evalConstant(M, Folded.idOperand(0)), Value::makeInt(5));
  EXPECT_EQ(interpret(M, F.Input).Outputs.at(0), Value::makeInt(5));
}

TEST(OptBehaviour, DceRemovesUnusedChains) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id A = M.takeFreshId(), B = M.takeFreshId();
  Merge->Body.insert(Merge->Body.begin() + 1,
                     ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, B, A, A));
  Merge->Body.insert(Merge->Body.begin() + 1,
                     ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, A,
                                              F.Const2, F.Const3));
  size_t Before = M.instructionCount();
  runOptPass(OptPassKind::Dce, M, BugHost());
  // Both chained unused adds disappear (fixpoint iteration).
  EXPECT_EQ(M.instructionCount(), Before - 2);
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, SimplifyCfgMergesSplitBlocks) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationSplitBlock(describeInstruction(*Merge, 1),
                               M.takeFreshId())));
  size_t BlocksBefore = M.findFunction(F.MainId)->Blocks.size();
  runOptPass(OptPassKind::SimplifyCfg, M, BugHost());
  EXPECT_EQ(M.findFunction(F.MainId)->Blocks.size(), BlocksBefore - 1);
  expectValidAndEquivalent(F.M, M, F.Input);
}

/// Replaces the fixture's then-block with a straight chain of \p Length
/// blocks (the then-block heads it): each block after the head adds 2 to
/// the running value, and the tail stores it to L and branches to the
/// merge. With \p Reversed the chain's blocks are laid out tail first, so
/// the head comes last. Returns the chain's labels, head first.
std::vector<Id> growThenChain(Fixture &F, size_t Length, bool Reversed) {
  Function &Main = *F.M.findFunction(F.MainId);
  std::vector<Id> Labels = {F.ThenBlock};
  for (size_t I = 1; I < Length; ++I)
    Labels.push_back(F.M.takeFreshId());
  std::vector<BasicBlock> Chain;
  Id Running = F.CallY;
  for (size_t I = 0; I < Length; ++I) {
    BasicBlock Block(Labels[I]);
    if (I == 0) {
      Block.Body.push_back(Main.findBlock(F.ThenBlock)->Body[0]); // the call
    } else {
      Id Sum = F.M.takeFreshId();
      Block.Body.push_back(ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, Sum,
                                                    Running, F.Const2));
      Running = Sum;
    }
    if (I + 1 < Length) {
      Block.Body.push_back(ModuleBuilder::makeBranch(Labels[I + 1]));
    } else {
      Block.Body.push_back(ModuleBuilder::makeStore(F.LocalL, Running));
      Block.Body.push_back(ModuleBuilder::makeBranch(F.MergeBlock));
    }
    Chain.push_back(std::move(Block));
  }
  if (Reversed)
    std::reverse(Chain.begin(), Chain.end());
  size_t At = *Main.blockIndex(F.ThenBlock);
  Main.Blocks.erase(Main.Blocks.begin() + At);
  Main.Blocks.insert(Main.Blocks.begin() + At,
                     std::make_move_iterator(Chain.begin()),
                     std::make_move_iterator(Chain.end()));
  return Labels;
}

TEST(OptBehaviour, SimplifyCfgCollapsesReversedThousandBlockChain) {
  Fixture F;
  growThenChain(F, 1000, /*Reversed=*/true);
  Module M = F.M;
  ASSERT_TRUE(runOptPass(OptPassKind::SimplifyCfg, M, BugHost()) ==
              std::nullopt);
  const Function &Main = *M.findFunction(F.MainId);
  ASSERT_EQ(Main.Blocks.size(), 4u);
  EXPECT_EQ(Main.Blocks[1].LabelId, F.ThenBlock); // the head's position
  EXPECT_EQ(Main.Blocks[2].LabelId, F.ElseBlock);
  // Call, 999 adds, store, branch.
  EXPECT_EQ(Main.Blocks[1].Body.size(), 1002u);
  // The reversed layout breaks the dominance rule; the collapsed chain
  // does not.
  EXPECT_FALSE(isValidModule(F.M));
  expectValidAndEquivalent(F.M, M, F.Input);
  EXPECT_EQ(interpret(M, F.Input).Outputs.at(0), Value::makeInt(10 + 2 * 999));
}

TEST(OptBehaviour, SimplifyCfgRenamesChainTailToHeadInDownstreamPhi) {
  Fixture F;
  std::vector<Id> Chain = growThenChain(F, 3, /*Reversed=*/false);
  // The merge picks its value with a phi over the chain's tail and the
  // else-block.
  BasicBlock &Merge = *F.M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id Picked = F.M.takeFreshId();
  Id TailValue =
      F.M.findFunction(F.MainId)->findBlock(Chain.back())->Body[0].Result;
  Merge.Body[1] = ModuleBuilder::makeStore(F.Out, Picked);
  Merge.Body.insert(Merge.Body.begin(),
                    Instruction(Op::Phi, F.IntType, Picked,
                                {Operand::id(TailValue),
                                 Operand::id(Chain.back()),
                                 Operand::id(F.Const5),
                                 Operand::id(F.ElseBlock)}));
  ASSERT_TRUE(isValidModule(F.M));
  Module M = F.M;
  runOptPass(OptPassKind::SimplifyCfg, M, BugHost());
  const Function &Main = *M.findFunction(F.MainId);
  EXPECT_EQ(Main.Blocks.size(), 4u);
  const Instruction &Phi = Main.findBlock(F.MergeBlock)->Body[0];
  ASSERT_EQ(Phi.Opcode, Op::Phi);
  EXPECT_EQ(Phi.Operands[1].asId(), F.ThenBlock);
  EXPECT_EQ(Phi.Operands[3].asId(), F.ElseBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, SimplifyCfgStopsAChainAtAPhiHeadedBlock) {
  Fixture F;
  std::vector<Id> Chain = growThenChain(F, 4, /*Reversed=*/false);
  // Put a single-entry phi at the top of the chain's third block: the
  // edge into it is no longer mergeable, so the chain splits in two.
  BasicBlock &Third = *F.M.findFunction(F.MainId)->findBlock(Chain[2]);
  Id Forwarded = F.M.takeFreshId();
  Id Summand = Third.Body[0].idOperand(0);
  Third.Body[0].Operands[0] = Operand::id(Forwarded);
  Third.Body.insert(Third.Body.begin(),
                    Instruction(Op::Phi, F.IntType, Forwarded,
                                {Operand::id(Summand), Operand::id(Chain[1])}));
  ASSERT_TRUE(isValidModule(F.M));
  Module M = F.M;
  runOptPass(OptPassKind::SimplifyCfg, M, BugHost());
  const Function &Main = *M.findFunction(F.MainId);
  ASSERT_EQ(Main.Blocks.size(), 5u);
  EXPECT_EQ(Main.Blocks[1].LabelId, F.ThenBlock);
  EXPECT_EQ(Main.Blocks[2].LabelId, Chain[2]);
  EXPECT_EQ(Main.Blocks[1].terminator().idOperand(0), Chain[2]);
  // The phi still names the predecessor, now the merged head.
  EXPECT_EQ(Main.Blocks[2].Body[0].Operands[1].asId(), F.ThenBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, SimplifyCfgCountsEqualTargetsAsTwoPredecessors) {
  Fixture F;
  // The entry branches to the then-block on both arms; the else-block
  // becomes unreachable.
  BasicBlock &Entry = F.M.findFunction(F.MainId)->entryBlock();
  Entry.Body.back() =
      ModuleBuilder::makeBranchConditional(F.CondC, F.ThenBlock, F.ThenBlock);
  ASSERT_TRUE(isValidModule(F.M));
  Module M = F.M;
  runOptPass(OptPassKind::SimplifyCfg, M, BugHost());
  // The then-block keeps its two-edge predecessor; the merge, whose only
  // predecessor left is the then-block, is absorbed into it.
  const Function &Main = *M.findFunction(F.MainId);
  ASSERT_EQ(Main.Blocks.size(), 2u);
  EXPECT_EQ(Main.Blocks[1].LabelId, F.ThenBlock);
  EXPECT_EQ(Main.Blocks[0].successors(),
            (std::vector<Id>{F.ThenBlock, F.ThenBlock}));
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, SimplifyCfgCollapsesAHeadlessCycleIntoItsFirstBlock) {
  Fixture F;
  // helper: entry -> Loop -> entry, every edge mergeable. The validator
  // rejects a branch to the entry block, but the pass still merges such a
  // cycle pair by pair into its first block instead of dropping it.
  Module M = F.M;
  Function &Helper = *M.findFunction(F.HelperId);
  Id Loop = M.takeFreshId();
  Helper.entryBlock().Body.back() = ModuleBuilder::makeBranch(Loop);
  BasicBlock LoopBlock(Loop);
  LoopBlock.Body.push_back(ModuleBuilder::makeBranch(F.HelperBlock));
  Helper.Blocks.push_back(std::move(LoopBlock));
  runOptPass(OptPassKind::SimplifyCfg, M, BugHost());
  const Function &After = *M.findFunction(F.HelperId);
  ASSERT_EQ(After.Blocks.size(), 1u);
  EXPECT_EQ(After.Blocks[0].LabelId, F.HelperBlock);
  EXPECT_EQ(After.Blocks[0].Body.size(), 2u); // the add, then the self-loop
  EXPECT_EQ(After.Blocks[0].successors(), std::vector<Id>{F.HelperBlock});
}

TEST(OptBehaviour, DceRemovesAThousandDeepDeadChain) {
  Fixture F;
  Module M = F.M;
  BasicBlock &Merge = *M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  std::vector<Instruction> Dead;
  Id Running = F.Const3;
  for (size_t I = 0; I < 1000; ++I) {
    Id Sum = M.takeFreshId();
    Dead.push_back(
        ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, Sum, Running, F.Const2));
    Running = Sum;
  }
  Merge.Body.insert(Merge.Body.begin() + 1, Dead.begin(), Dead.end());
  ASSERT_TRUE(isValidModule(M));
  runOptPass(OptPassKind::Dce, M, BugHost());
  EXPECT_EQ(M.instructionCount(), F.M.instructionCount());
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, DceKeepsADeadSelfReferencingPhi) {
  Fixture F;
  // Turn the else-block into a loop header whose phi feeds only itself;
  // the back edge is never taken.
  ModuleBuilder Builder(F.M);
  Id False = Builder.getBoolConstant(false);
  BasicBlock &Else = *F.M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  Id Carried = F.M.takeFreshId();
  Else.Body.insert(Else.Body.begin(),
                   Instruction(Op::Phi, F.IntType, Carried,
                               {Operand::id(F.Const5), Operand::id(F.EntryBlock),
                                Operand::id(Carried),
                                Operand::id(F.ElseBlock)}));
  Else.Body.back() =
      ModuleBuilder::makeBranchConditional(False, F.ElseBlock, F.MergeBlock);
  ASSERT_TRUE(isValidModule(F.M));
  Module M = F.M;
  runOptPass(OptPassKind::Dce, M, BugHost());
  const BasicBlock &After = *M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  ASSERT_EQ(After.Body[0].Opcode, Op::Phi);
  EXPECT_EQ(After.Body[0].Result, Carried);
  EXPECT_EQ(M.instructionCount(), F.M.instructionCount());
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, DceCompositeDeadOnlyAfterItsUserGoesDoesNotCrash) {
  Fixture F;
  Module M = F.M;
  ModuleBuilder Builder(M);
  Id Vec2 = Builder.getVectorType(F.IntType, 2);
  BasicBlock &Merge = *M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id Composite = M.takeFreshId(), Extracted = M.takeFreshId();
  // The construct's only user is an unused extract: the construct is
  // dead only once the extract is gone, which the bug's check on the
  // initial use counts must not see.
  Merge.Body.insert(
      Merge.Body.begin() + 1,
      {Instruction(Op::CompositeConstruct, Vec2, Composite,
                   {Operand::id(F.Const2), Operand::id(F.Const3)}),
       Instruction(Op::CompositeExtract, F.IntType, Extracted,
                   {Operand::id(Composite), Operand::literal(1)})});
  ASSERT_TRUE(isValidModule(M));
  Module Buggy = M;
  EXPECT_EQ(runOptPass(OptPassKind::Dce, Buggy,
                       BugHost({BugPoint::CrashUnusedComposite})),
            std::nullopt);
  // Both go, construct and extract, as with bugs disabled.
  EXPECT_EQ(Buggy.instructionCount(), M.instructionCount() - 2);
  Module Clean = M;
  runOptPass(OptPassKind::Dce, Clean, BugHost());
  EXPECT_EQ(hashModule(Clean), hashModule(Buggy));
  expectValidAndEquivalent(M, Buggy, F.Input);
}

TEST(OptBehaviour, InlinerInlinesAndHonorsDontInline) {
  Fixture F;
  {
    Module M = F.M;
    runOptPass(OptPassKind::Inliner, M, BugHost());
    for (const BasicBlock &Block : M.findFunction(F.MainId)->Blocks)
      for (const Instruction &Inst : Block.Body)
        EXPECT_NE(Inst.Opcode, Op::FunctionCall);
    expectValidAndEquivalent(F.M, M, F.Input);
  }
  {
    Module M = F.M;
    M.findFunction(F.HelperId)->setControlMask(FC_DontInline);
    runOptPass(OptPassKind::Inliner, M, BugHost());
    bool CallSurvives = false;
    for (const BasicBlock &Block : M.findFunction(F.MainId)->Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::FunctionCall)
          CallSurvives = true;
    EXPECT_TRUE(CallSurvives);
  }
}

TEST(OptBehaviour, ForwardingEliminatesRedundantLoad) {
  Fixture F;
  Module M = F.M;
  // else-block: store L, 5 — add "load L; store Out, load" right after.
  BasicBlock *Else = M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  Id LoadId = M.takeFreshId();
  Else->Body.insert(Else->Body.begin() + 1,
                    ModuleBuilder::makeLoad(F.IntType, LoadId, F.LocalL));
  ASSERT_TRUE(isValidModule(M));
  runOptPass(OptPassKind::LoadStoreForwarding, M, BugHost());
  EXPECT_EQ(M.findFunction(F.MainId)->findBlock(F.ElseBlock)->Body[1].Opcode,
            Op::CopyObject);
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, BlockLayoutProducesReversePostorder) {
  // Our DFS pushes the conditional's false edge last and pops it first in
  // reverse postorder, so the canonical order is entry, else, then, merge
  // regardless of the input order.
  Fixture F;
  for (bool Scramble : {false, true}) {
    Module M = F.M;
    if (Scramble) {
      Function *Main = M.findFunction(F.MainId);
      std::swap(Main->Blocks[1], Main->Blocks[2]);
      ASSERT_TRUE(isValidModule(M));
    }
    runOptPass(OptPassKind::BlockLayout, M, BugHost());
    const Function *Main = M.findFunction(F.MainId);
    EXPECT_EQ(Main->Blocks[0].LabelId, F.EntryBlock);
    EXPECT_EQ(Main->Blocks[1].LabelId, F.ElseBlock);
    EXPECT_EQ(Main->Blocks[2].LabelId, F.ThenBlock);
    EXPECT_EQ(Main->Blocks[3].LabelId, F.MergeBlock);
    expectValidAndEquivalent(F.M, M, F.Input);
  }
}

TEST(OptBehaviour, PhiSimplifyCollapsesSingleEntryPhis) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  Id PhiId = M.takeFreshId();
  Then->Body.insert(Then->Body.begin(),
                    Instruction(Op::Phi, F.IntType, PhiId,
                                {Operand::id(F.LoadX),
                                 Operand::id(F.EntryBlock)}));
  ASSERT_TRUE(isValidModule(M));
  runOptPass(OptPassKind::PhiSimplify, M, BugHost());
  EXPECT_EQ(M.findFunction(F.MainId)->findBlock(F.ThenBlock)->Body[0].Opcode,
            Op::CopyObject);
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(OptBehaviour, DeadStoreElimRemovesWriteOnlyLocals) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);
  Id Scratch = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddLocalVariable(Scratch, FunctionPtr, F.MainId,
                                     InvalidId)));
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddStore(Scratch, F.Const5,
                             describeInstruction(*Merge, 1))));
  size_t Before = M.instructionCount();
  runOptPass(OptPassKind::DeadStoreElim, M, BugHost());
  EXPECT_EQ(M.instructionCount(), Before - 1); // the store is gone
  expectValidAndEquivalent(F.M, M, F.Input);
}

} // namespace

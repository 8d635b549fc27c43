//===- tests/OptPassesTest.cpp - Compiler-substrate correctness -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated compilers must be *correct implementations* when their
/// injected bugs are disabled (Definition 2.2): on any valid module, every
/// pipeline must terminate without crashing and compute Semantics(P, I).
/// This is checked on generated originals and on fuzzed variants, per pass
/// and for full pipelines.
///
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "core/Fuzzer.h"
#include "exec/Interpreter.h"
#include "gen/Generator.h"
#include "ir/Text.h"
#include "opt/Passes.h"
#include "target/Target.h"

#include <gtest/gtest.h>

using namespace spvfuzz;

namespace {

const std::vector<OptPassKind> AllPasses = {
    OptPassKind::FrontendCheck,  OptPassKind::SimplifyCfg,
    OptPassKind::Inliner,        OptPassKind::LocalCSE,
    OptPassKind::LoadStoreForwarding, OptPassKind::ConstantFold,
    OptPassKind::DeadBranchElim, OptPassKind::PhiSimplify,
    OptPassKind::CopyPropagation, OptPassKind::DeadStoreElim,
    OptPassKind::Dce,            OptPassKind::BlockLayout,
};

Module fuzzedVariant(uint64_t Seed, GeneratedProgram &ProgramOut) {
  ProgramOut = generateProgram(Seed);
  std::vector<GeneratedProgram> DonorPrograms = generateCorpus(2, Seed + 500);
  std::vector<const Module *> Donors;
  for (const GeneratedProgram &Donor : DonorPrograms)
    Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = 250;
  return fuzz(ProgramOut.M, ProgramOut.Input, Donors, Seed, Options).Variant;
}

class OptPassProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptPassProperty, EachPassPreservesSemanticsOnOriginals) {
  GeneratedProgram Program = generateProgram(GetParam());
  ExecResult Reference = interpret(Program.M, Program.Input);
  BugHost NoBugs;
  for (OptPassKind Kind : AllPasses) {
    Module Optimized = Program.M;
    PassCrash Crash = runOptPass(Kind, Optimized, NoBugs);
    ASSERT_FALSE(Crash.has_value())
        << optPassName(Kind) << " crashed with bugs disabled: " << *Crash;
    std::vector<std::string> Diags = validateModule(Optimized);
    ASSERT_TRUE(Diags.empty())
        << optPassName(Kind) << ": " << Diags.front() << "\n"
        << writeModuleText(Optimized);
    EXPECT_EQ(Reference, interpret(Optimized, Program.Input))
        << optPassName(Kind) << " changed semantics";
  }
}

TEST_P(OptPassProperty, FullPipelinePreservesSemanticsOnOriginals) {
  GeneratedProgram Program = generateProgram(GetParam());
  ExecResult Reference = interpret(Program.M, Program.Input);
  BugHost NoBugs;
  Module Optimized = Program.M;
  PassCrash Crash = runPipeline(AllPasses, Optimized, NoBugs);
  ASSERT_FALSE(Crash.has_value());
  std::vector<std::string> Diags = validateModule(Optimized);
  ASSERT_TRUE(Diags.empty()) << Diags.front() << "\n"
                             << writeModuleText(Optimized);
  EXPECT_EQ(Reference, interpret(Optimized, Program.Input));
}

TEST_P(OptPassProperty, FullPipelinePreservesSemanticsOnVariants) {
  GeneratedProgram Program;
  Module Variant = fuzzedVariant(GetParam(), Program);
  ExecResult Reference = interpret(Variant, Program.Input);
  BugHost NoBugs;
  Module Optimized = Variant;
  PassCrash Crash = runPipeline(AllPasses, Optimized, NoBugs);
  ASSERT_FALSE(Crash.has_value());
  std::vector<std::string> Diags = validateModule(Optimized);
  ASSERT_TRUE(Diags.empty()) << Diags.front() << "\n--- variant ---\n"
                             << writeModuleText(Variant)
                             << "\n--- optimized ---\n"
                             << writeModuleText(Optimized);
  EXPECT_EQ(Reference, interpret(Optimized, Program.Input));
}

TEST_P(OptPassProperty, PipelineShrinksOrKeepsVariants) {
  GeneratedProgram Program;
  Module Variant = fuzzedVariant(GetParam() + 77, Program);
  BugHost NoBugs;
  Module Optimized = Variant;
  runPipeline(AllPasses, Optimized, NoBugs);
  // An optimizer should not blow the program up.
  EXPECT_LE(Optimized.instructionCount(), Variant.instructionCount() * 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptPassProperty,
                         ::testing::Range<uint64_t>(0, 10));

TEST(Targets, OriginalsNeverTriggerInjectedBugs) {
  // Injected bugs are gated on fuzzer-introduced features; original
  // programs must compile and run cleanly on every target, or campaigns
  // would be measuring generator noise.
  TargetFleet Fleet = TargetFleet::standard();
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    for (const Target &T : Fleet) {
      TargetRun Run = T.run(Program.M, Program.Input);
      ASSERT_EQ(Run.RunOutcome, Outcome::Executed)
          << T.name() << " crashed on original seed " << Seed << ": "
          << Run.Signature;
      if (T.canExecute()) {
        EXPECT_EQ(Run.Result, interpret(Program.M, Program.Input))
            << T.name() << " miscompiled original seed " << Seed;
      }
    }
  }
}

TEST(Targets, TableTwoShape) {
  TargetFleet Fleet = TargetFleet::standard();
  ASSERT_EQ(Fleet.size(), 9u);
  size_t CrashOnly = 0;
  for (const Target &T : Fleet)
    if (!T.canExecute())
      ++CrashOnly;
  // AMD-LLPC, spirv-opt and spirv-opt-old cannot render images (ğ4).
  EXPECT_EQ(CrashOnly, 3u);
}

} // namespace

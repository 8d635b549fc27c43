//===- tests/EndToEndTest.cpp - Headline end-to-end scenarios -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-workflow scenarios asserting the paper's headline artefacts: the
/// Figure 3 one-attribute delta on SwiftShader, miscompilation detection
/// and reduction, target determinism, and the text format surviving the
/// entire fuzz-report round trip.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "core/ReductionPipeline.h"
#include "ir/Text.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

/// Shared across cases: the fleet is immutable and cheap to reuse.
const TargetFleet &standardFleet() {
  static const TargetFleet Fleet = TargetFleet::standard();
  return Fleet;
}

TEST(EndToEnd, FigureThreeDontInlineDelta) {
  // Fuzz until SwiftShader crashes on the DontInline bug, reduce, and
  // assert the paper's Figure 3 artefact: the reduced variant differs from
  // the original in *zero* instruction count and the minimized sequence is
  // just the attribute toggle.
  const Target *SwiftShader = standardFleet().find("SwiftShader");
  ASSERT_NE(SwiftShader, nullptr);
  Corpus C = makeCorpus(
      CorpusSpec{}.withSeed(3).withReferences(6).withDonors(4));
  ToolConfig Tool =
      standardTools(ToolsetSpec{}.withTransformationLimit(250))[0];
  const char *Signature = bugSignature(BugPoint::CrashDontInlineAttribute);

  bool Found = false;
  for (size_t TestIndex = 0; TestIndex < 200 && !Found; ++TestIndex) {
    size_t Ref = 0;
    FuzzResult Fuzzed = regenerateTest(C, Tool, 3, TestIndex, Ref);
    const GeneratedProgram &Reference = C.References[Ref];
    TargetRun Run = SwiftShader->run(Fuzzed.Variant, Reference.Input);
    if (!Run.interesting() || Run.Signature != Signature)
      continue;
    Found = true;

    InterestingnessTest Test = makeInterestingnessTest(
        *SwiftShader, Signature, Reference.M, Reference.Input);
    ReduceResult Reduced =
        ReductionPipeline(ReductionPlan{})
            .run(Reference.M, Reference.Input, Fuzzed.Sequence, Test);
    ASSERT_EQ(Reduced.Minimized.size(), 1u);
    EXPECT_EQ(Reduced.Minimized[0]->kind(),
              TransformationKind::ToggleDontInline);
    // Figure 3: both programs feature the same number of instructions.
    EXPECT_EQ(Reduced.ReducedVariant.instructionCount(),
              Reference.M.instructionCount());
    std::string Diff = diffModuleText(Reference.M, Reduced.ReducedVariant);
    EXPECT_NE(Diff.find("DontInline"), std::string::npos);
    // One removed and one added line: a single-instruction delta.
    EXPECT_EQ(std::count(Diff.begin(), Diff.end(), '\n'), 2);
  }
  EXPECT_TRUE(Found) << "no DontInline crash in 200 tests";
}

TEST(EndToEnd, MiscompilationDetectedAndReduced) {
  const Target *Mesa = standardFleet().find("Mesa");
  ASSERT_NE(Mesa, nullptr);
  Corpus C = makeCorpus(CorpusSpec{}.withSeed(11));
  ToolConfig Tool =
      standardTools(ToolsetSpec{}.withTransformationLimit(250))[0];

  bool Found = false;
  for (size_t TestIndex = 0; TestIndex < 400 && !Found; ++TestIndex) {
    size_t Ref = 0;
    FuzzResult Fuzzed = regenerateTest(C, Tool, 11, TestIndex, Ref);
    const GeneratedProgram &Reference = C.References[Ref];
    TargetRun Run = Mesa->run(Fuzzed.Variant, Reference.Input);
    if (Run.RunOutcome != Outcome::Executed)
      continue;
    TargetRun OriginalRun = Mesa->run(Reference.M, Reference.Input);
    if (OriginalRun.RunOutcome != Outcome::Executed ||
        Run.Result == OriginalRun.Result)
      continue;
    Found = true;

    InterestingnessTest Test = makeInterestingnessTest(
        *Mesa, MiscompilationSignature, Reference.M, Reference.Input);
    ReduceResult Reduced =
        ReductionPipeline(ReductionPlan{})
            .run(Reference.M, Reference.Input, Fuzzed.Sequence, Test);
    // The reduced variant still renders a different "image".
    EXPECT_TRUE(Test(Reduced.ReducedVariant, Reduced.ReducedFacts));
    // But is still semantically equivalent to the original (Theorem 2.6:
    // the mismatch is the compiler's fault).
    EXPECT_EQ(interpret(Reference.M, Reference.Input),
              interpret(Reduced.ReducedVariant, Reference.Input));
    EXPECT_LE(Reduced.Minimized.size(), 12u);
  }
  EXPECT_TRUE(Found) << "no Mesa miscompilation in 400 tests";
}

TEST(EndToEnd, TargetsAreDeterministic) {
  GeneratedProgram Program = generateProgram(21);
  FuzzerOptions Options;
  Options.TransformationLimit = 200;
  FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, 21, Options);
  for (const Target &T : standardFleet()) {
    TargetRun First = T.run(Fuzzed.Variant, Program.Input);
    TargetRun Second = T.run(Fuzzed.Variant, Program.Input);
    EXPECT_EQ(First.RunOutcome, Second.RunOutcome) << T.name();
    EXPECT_EQ(First.Signature, Second.Signature) << T.name();
    if (First.RunOutcome == Outcome::Executed && T.canExecute()) {
      EXPECT_EQ(First.Result, Second.Result) << T.name();
    }
  }
}

TEST(EndToEnd, CompiledVariantsStayValidUnderEveryTarget) {
  // Whatever a (bug-free w.r.t. crashes) compilation produces must be a
  // valid module — including for fuzzed inputs — unless a *miscompile* bug
  // intentionally broke SSA shape.
  for (uint64_t Seed = 50; Seed < 56; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzerOptions Options;
    Options.TransformationLimit = 150;
    FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, Seed, Options);
    for (const Target &T : standardFleet()) {
      bool HasMiscompileBug = false;
      for (BugPoint Point : T.spec().Bugs.all())
        if (bugSignature(Point) == std::string("<miscompilation>"))
          HasMiscompileBug = true;
      if (HasMiscompileBug)
        continue;
      Module Optimized;
      if (T.compile(Fuzzed.Variant, Optimized))
        continue; // crashed; nothing to validate
      EXPECT_TRUE(isValidModule(Optimized))
          << T.name() << " produced an invalid module from seed " << Seed;
    }
  }
}

TEST(EndToEnd, BugReportSurvivesTextAndSequenceRoundTrip) {
  // A bug report = original text + input + minimized sequence. Rebuilding
  // the reduced variant from the *serialized* artefacts must reproduce the
  // crash — this is what makes reports actionable.
  const Target *NVidia = standardFleet().find("NVIDIA");
  Corpus C = makeCorpus(
      CorpusSpec{}.withSeed(7).withReferences(6).withDonors(4));
  ToolConfig Tool =
      standardTools(ToolsetSpec{}.withTransformationLimit(250))[0];

  for (size_t TestIndex = 0; TestIndex < 120; ++TestIndex) {
    size_t Ref = 0;
    FuzzResult Fuzzed = regenerateTest(C, Tool, 7, TestIndex, Ref);
    const GeneratedProgram &Reference = C.References[Ref];
    TargetRun Run = NVidia->run(Fuzzed.Variant, Reference.Input);
    if (!Run.interesting())
      continue;

    InterestingnessTest Test = makeInterestingnessTest(
        *NVidia, Run.Signature, Reference.M, Reference.Input);
    ReduceResult Reduced =
        ReductionPipeline(ReductionPlan{})
            .run(Reference.M, Reference.Input, Fuzzed.Sequence, Test);

    // Serialize everything, parse back, replay.
    std::string OriginalText = writeModuleText(Reference.M);
    std::string SequenceText = serializeSequence(Reduced.Minimized);
    Module ParsedOriginal;
    std::string Error;
    ASSERT_TRUE(readModuleText(OriginalText, ParsedOriginal, Error)) << Error;
    TransformationSequence ParsedSequence;
    ASSERT_TRUE(deserializeSequence(SequenceText, ParsedSequence, Error))
        << Error;
    Module Rebuilt = ParsedOriginal;
    FactManager Facts;
    Facts.setKnownInput(Reference.Input);
    applySequence(Rebuilt, Facts, ParsedSequence);

    TargetRun RebuiltRun = NVidia->run(Rebuilt, Reference.Input);
    ASSERT_EQ(RebuiltRun.RunOutcome, Outcome::Crash);
    EXPECT_EQ(RebuiltRun.Signature, Run.Signature);
    return; // one crash suffices
  }
  FAIL() << "no NVIDIA crash in 120 tests";
}

} // namespace

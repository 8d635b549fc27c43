//===- tests/HarnessTest.cpp - Fault-tolerance harness tests --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness contracts: step budgets time out at exactly the budget
/// boundary, fault draws are pure functions of (seed, module, attempt),
/// harnessed runs are pure in (module, input) even on flaky targets, the
/// default policy is behaviour-identical to the unharnessed fleet, and the
/// quarantine breaker engages, holds and clears deterministically. A
/// module hash supplied by the caller changes no run and no counter.
///
//===----------------------------------------------------------------------===//

#include "core/Fuzzer.h"
#include "gen/Generator.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "target/Harness.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

const Target *fleetTarget(const TargetFleet &Fleet, const std::string &Name) {
  const Target *T = Fleet.find(Name);
  EXPECT_NE(T, nullptr) << Name;
  return T;
}

//===----------------------------------------------------------------------===//
// Step budgets
//===----------------------------------------------------------------------===//

TEST(Harness, CompileTimesOutExactlyPastTheStepBudget) {
  // The simulated compile cost is instructions x passes; a budget equal to
  // the cost succeeds, one step less times out. Use a crash-only target so
  // no interpreter step accounting muddies the boundary.
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  Fixture F;
  const uint64_t Cost = static_cast<uint64_t>(F.M.instructionCount()) *
                        Opt->spec().Pipeline.size();

  RunContext Exact;
  Exact.StepBudget = Cost;
  EXPECT_EQ(Opt->run(F.M, F.Input, Exact).RunOutcome, Outcome::Executed);

  RunContext OneShort;
  OneShort.StepBudget = Cost - 1;
  TargetRun Run = Opt->run(F.M, F.Input, OneShort);
  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  EXPECT_TRUE(Run.interesting()) << "timeouts are bug candidates";
}

TEST(Harness, HarnessedTimeoutIsCountedAndInteresting) {
  using telemetry::MetricsRegistry;
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  Fixture F;
  HarnessPolicy Policy;
  Policy.TargetDeadlineSteps = 1; // everything times out

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  HarnessedTarget Budgeted(*Opt, Policy);
  TargetRun Run = Budgeted.run(F.M, F.Input);
  uint64_t Timeouts =
      MetricsRegistry::global().counterValue("harness.timeouts");
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  EXPECT_EQ(Timeouts, 1u);
}

TEST(Harness, DefaultPolicyMatchesUnharnessedSolidFleet) {
  // The backward-compatibility invariant: with the default step budget
  // (the interpreter's own limit) a harnessed solid target is
  // bit-identical to the raw target.
  GeneratedProgram Program = generateProgram(17);
  HarnessPolicy Policy;
  for (const Target &T : TargetFleet::standard()) {
    HarnessedTarget H(T, Policy);
    TargetRun Raw = T.run(Program.M, Program.Input);
    TargetRun Harnessed = H.run(Program.M, Program.Input);
    EXPECT_EQ(Harnessed.RunOutcome, Raw.RunOutcome) << T.name();
    EXPECT_EQ(Harnessed.Signature, Raw.Signature) << T.name();
    EXPECT_EQ(Harnessed.Result == Raw.Result, true) << T.name();
  }
}

//===----------------------------------------------------------------------===//
// Fault draws
//===----------------------------------------------------------------------===//

TEST(Harness, FlakyDrawIsPureInSeedModuleAndAttempt) {
  Fixture F;
  const uint64_t MHash = hashModule(F.M);
  size_t Fires = 0;
  for (uint32_t Attempt = 0; Attempt < 64; ++Attempt) {
    bool First = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                               Attempt);
    bool Second = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                                Attempt);
    EXPECT_EQ(First, Second) << "attempt " << Attempt;
    Fires += First ? 1 : 0;
  }
  // The draw actually varies by attempt: across 64 attempts at p = 0.75
  // both outcomes occur.
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 64u);

  // And it varies by module: a different module hash gives a different
  // fire pattern for at least one attempt.
  bool Differs = false;
  for (uint32_t Attempt = 0; Attempt < 64 && !Differs; ++Attempt)
    Differs = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                            Attempt) !=
              flakyBugFires(2021, MHash ^ 1, BugPoint::CrashUnusedCallResult,
                            Attempt);
  EXPECT_TRUE(Differs);
}

TEST(Harness, ToolErrorDrawRespectsRateExtremes) {
  Fixture F;
  const uint64_t MHash = hashModule(F.M);
  for (uint32_t Attempt = 0; Attempt < 32; ++Attempt) {
    EXPECT_FALSE(toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.0));
    EXPECT_TRUE(toolErrorFires(7, MHash, "Pixel-3", Attempt, 1.0));
    EXPECT_EQ(toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.5),
              toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.5));
  }
}

TEST(Harness, SolidHangFlavorSurfacesAsTimeout) {
  // A (non-flaky) Hang-flavored bug wedges the pipeline: the crash becomes
  // a signature-less timeout, deterministically.
  TargetFleet Fleet = TargetFleet::standard();
  TargetSpec Spec = fleetTarget(Fleet, "SwiftShader")->spec();
  Spec.Name = "SwiftShader-wedge";
  Spec.Bugs.withFlavor(BugPoint::CrashDontInlineAttribute, BugFlavor::Hang);
  Target Wedge(Spec);

  Fixture F;
  Module WithDontInline = F.M;
  WithDontInline.findFunction(F.HelperId)->setControlMask(FC_DontInline);

  TargetRun Run = Wedge.run(WithDontInline, F.Input);
  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  // The clean module is unaffected.
  EXPECT_EQ(Wedge.run(F.M, F.Input).RunOutcome, Outcome::Executed);
}

//===----------------------------------------------------------------------===//
// Retry / voting
//===----------------------------------------------------------------------===//

TEST(Harness, HarnessedRunsArePureOnFlakyTargets) {
  // The determinism keystone: even though a flaky target's single attempts
  // disagree, the harnessed (voted) verdict is a pure function of
  // (module, input) — repeated calls agree exactly.
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  ASSERT_FALSE(Old->spec().deterministic());
  HarnessPolicy Policy;
  Policy.CampaignSeed = 2021;
  HarnessedTarget H(*Old, Policy);

  Fixture F;
  Module WithDontInline = F.M;
  WithDontInline.findFunction(F.HelperId)->setControlMask(FC_DontInline);

  for (const Module *M : {&F.M, &WithDontInline}) {
    TargetRun A = H.run(*M, F.Input);
    TargetRun B = H.run(*M, F.Input);
    EXPECT_EQ(A.RunOutcome, B.RunOutcome);
    EXPECT_EQ(A.Signature, B.Signature);
    EXPECT_EQ(A.Result == B.Result, true);
  }
  // A FlakyHang bug, when it wins the vote, reports as a timeout; either
  // way a triggered flaky bug never reports as a plain crash.
  TargetRun Verdict = H.run(WithDontInline, F.Input);
  EXPECT_NE(Verdict.RunOutcome, Outcome::Crash);
}

TEST(Harness, VotingRetriesAreCounted) {
  using telemetry::MetricsRegistry;
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  HarnessPolicy Policy;
  Policy.FlakyRetries = 5;
  HarnessedTarget H(*Old, Policy);
  Fixture F;

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  H.run(F.M, F.Input);
  uint64_t Retries = MetricsRegistry::global().counterValue("harness.retries");
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  // All five attempts ran (SwiftShader-old's 10% tool-error rate cannot
  // hard-fail five attempts at threshold 3 here: the draw is deterministic
  // and this seed/module passes), so four were retries.
  EXPECT_EQ(Retries, 4u);
}

//===----------------------------------------------------------------------===//
// Quarantine breaker
//===----------------------------------------------------------------------===//

TEST(Harness, QuarantineEngagesAtThresholdAndClears) {
  HarnessPolicy Policy;
  Policy.QuarantineThreshold = 3;
  TargetFleet Fleet = TargetFleet::faulty();
  Harness Har(Fleet, Policy);

  EXPECT_FALSE(Har.quarantined("Pixel-3"));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  // The third consecutive hard error newly quarantines.
  EXPECT_TRUE(Har.recordOutcome("Pixel-3", true));
  EXPECT_TRUE(Har.quarantined("Pixel-3"));
  EXPECT_EQ(Har.quarantinedCount(), 1u);
  // Further errors are absorbed without re-reporting.
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));

  Har.clearQuarantine("Pixel-3");
  EXPECT_FALSE(Har.quarantined("Pixel-3"));
  EXPECT_EQ(Har.quarantinedCount(), 0u);
}

TEST(Harness, SuccessResetsTheConsecutiveErrorCount) {
  HarnessPolicy Policy;
  Policy.QuarantineThreshold = 3;
  Harness Har(TargetFleet::faulty(), Policy);

  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", false)); // a clean run
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.quarantined("Pixel-3"))
      << "errors must be consecutive to trip the breaker";
  EXPECT_TRUE(Har.recordOutcome("Pixel-3", true));
}

TEST(Harness, FlakyTargetsNeverTouchTheEvalCache) {
  // Handing the harness a cache must not change flaky verdicts or populate
  // entries for nondeterministic targets.
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  HarnessPolicy Policy;
  EvalCache Cache(8u << 20);
  HarnessedTarget Cached(*Old, Policy, &Cache);
  Fixture F;
  Cached.run(F.M, F.Input);
  Cached.run(F.M, F.Input);
  EXPECT_EQ(Cache.entryCount(), 0u);
  EXPECT_EQ(Cache.hitCount() + Cache.missCount(), 0u);

  // A deterministic target through the same harness does get memoized.
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  HarnessedTarget CachedOpt(*Opt, Policy, &Cache);
  CachedOpt.run(F.M, F.Input);
  CachedOpt.run(F.M, F.Input);
  EXPECT_EQ(Cache.hitCount(), 1u);
  EXPECT_EQ(Cache.missCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Supplied module hashes
//===----------------------------------------------------------------------===//

/// What one arm of a run observes: the runs plus every registry counter.
struct Observed {
  std::vector<TargetRun> Runs;
  std::map<std::string, uint64_t> Counters;
};

template <typename Fn> Observed observe(Fn &&Body) {
  using telemetry::MetricsRegistry;
  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  Observed O;
  O.Runs = Body();
  O.Counters = MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);
  return O;
}

void expectSameObservations(const Observed &Plain, const Observed &Hashed,
                            const std::string &Where) {
  ASSERT_EQ(Plain.Runs.size(), Hashed.Runs.size()) << Where;
  for (size_t I = 0; I < Plain.Runs.size(); ++I) {
    EXPECT_EQ(Plain.Runs[I].RunOutcome, Hashed.Runs[I].RunOutcome) << Where;
    EXPECT_EQ(Plain.Runs[I].Signature, Hashed.Runs[I].Signature) << Where;
    EXPECT_TRUE(Plain.Runs[I].Result == Hashed.Runs[I].Result) << Where;
  }
  EXPECT_EQ(Plain.Counters, Hashed.Counters) << Where;
}

/// The fixture, its DontInline twin (which fires SwiftShader-old's flaky
/// bug) and a few fuzzed variants, so crashes, timeouts, tool errors and
/// clean executions all occur.
std::vector<Module> hashSubjects() {
  Fixture F;
  std::vector<Module> Subjects = {F.M, F.M};
  Subjects[1].findFunction(F.HelperId)->setControlMask(FC_DontInline);
  std::vector<GeneratedProgram> Donors = generateCorpus(2, 77);
  std::vector<const Module *> DonorModules = {&Donors[0].M, &Donors[1].M};
  FuzzerOptions Options;
  Options.TransformationLimit = 150;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    Subjects.push_back(
        fuzz(Program.M, Program.Input, DonorModules, Seed, Options).Variant);
  }
  return Subjects;
}

TEST(Harness, SuppliedModuleHashChangesNoRunAndNoCounter) {
  TargetFleet Fleet = TargetFleet::faulty();
  Fixture F;
  std::vector<ShaderInput> Inputs(2, F.Input);
  Inputs[1].Bindings[0] = Value::makeInt(1);
  HarnessPolicy Policy;
  Policy.CampaignSeed = 2021;

  size_t Interesting = 0, ToolErrors = 0;
  for (const Module &M : hashSubjects()) {
    const uint64_t Hash = hashModule(M);
    for (const char *Name :
         {"SwiftShader", "spirv-opt", "SwiftShader-old", "Pixel-3"}) {
      const Target *T = fleetTarget(Fleet, Name);
      std::string Where = std::string(Name) + " on module " +
                          std::to_string(Hash);

      // Target::runBatch, with and without an artifact cache.
      for (bool WithExeCache : {false, true}) {
        auto Raw = [&](std::optional<uint64_t> Supplied) {
          ExecutableCache ExeC(8u << 20);
          return observe([&] {
            RunContext Ctx;
            Ctx.CampaignSeed = Policy.CampaignSeed;
            Ctx.ModuleHash = Supplied;
            if (WithExeCache && T->spec().deterministic())
              Ctx.ExeCache = &ExeC;
            // Twice, so a cached second call replays the first's compile.
            std::vector<TargetRun> Runs = T->runBatch(M, Inputs, Ctx);
            std::vector<TargetRun> Again = T->runBatch(M, Inputs, Ctx);
            Runs.insert(Runs.end(), Again.begin(), Again.end());
            return Runs;
          });
        };
        expectSameObservations(Raw(std::nullopt), Raw(Hash),
                               "Target::runBatch " + Where);
      }

      // HarnessedTarget::run and runBatch, uncached and memoized views.
      for (bool Memoized : {false, true}) {
        auto Harnessed = [&](std::optional<uint64_t> Supplied) {
          EvalCache Cache(8u << 20);
          ExecutableCache ExeC(8u << 20);
          HarnessedTarget H(*T, Policy, Memoized ? &Cache : nullptr, &ExeC);
          return observe([&] {
            std::vector<TargetRun> Runs = H.runBatch(M, Inputs, Supplied);
            for (const ShaderInput &Input : Inputs)
              Runs.push_back(H.run(M, Input, Supplied));
            return Runs;
          });
        };
        Observed Plain = Harnessed(std::nullopt);
        expectSameObservations(Plain, Harnessed(Hash),
                               "HarnessedTarget " + Where);
        for (const TargetRun &R : Plain.Runs) {
          Interesting += R.interesting() ? 1 : 0;
          ToolErrors += R.RunOutcome == Outcome::ToolError ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(Interesting, 0u) << "no subject exercised a crash path";
  EXPECT_GT(ToolErrors, 0u) << "no subject exercised a tool error";
}

// The supplied-hash check is a Debug-build assertion, so the test exists
// only where assertions are compiled in.
#ifndef NDEBUG
TEST(HarnessDeathTest, WrongSuppliedModuleHashAsserts) {
  Fixture F;
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  const uint64_t Wrong = hashModule(F.M) ^ 1;
  RunContext Ctx;
  Ctx.ModuleHash = Wrong;
  EXPECT_DEATH(Opt->run(F.M, F.Input, Ctx), "supplied module hash");
  EvalCache Cache(8u << 20);
  HarnessedTarget Memoized(*Opt, HarnessPolicy(), &Cache);
  EXPECT_DEATH(Memoized.run(F.M, F.Input, Wrong), "supplied module hash");
  ExecutableCache ExeC(8u << 20);
  EXPECT_DEATH(ExeC.getOrCompile(*Opt, F.M, ExecEngine::Lowered, Wrong),
               "supplied module hash");
}
#endif

} // namespace

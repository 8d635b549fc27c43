//===- tests/CampaignEngineTest.cpp - Engine determinism tests ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's headline guarantee: a campaign run with N worker threads is
/// bit-identical to the serial run — same TestEvaluations, same reduction
/// records, same dedup classes, same metrics counter totals — including on
/// the faulty fleet, where flaky bugs, timeouts, retries and quarantine are
/// in play. Also covers the ExecutionPolicy defaults and deadline
/// truncation.
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <chrono>
#include <thread>

using namespace spvfuzz;

namespace {

// A laptop-friendly campaign: a small corpus and modest fuzzing volume so
// each determinism test runs a full parallel-vs-serial comparison in
// seconds.
CorpusSpec smallCorpus() {
  return CorpusSpec{}.withReferences(4).withDonors(6);
}

CampaignEngine makeEngine(size_t Jobs) {
  return CampaignEngine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(120),
      smallCorpus());
}

void expectSameEvaluations(const std::vector<TestEvaluation> &A,
                           const std::vector<TestEvaluation> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Seed, B[I].Seed) << "test " << I;
    EXPECT_EQ(A[I].ReferenceIndex, B[I].ReferenceIndex) << "test " << I;
    EXPECT_EQ(A[I].Signatures, B[I].Signatures) << "test " << I;
  }
}

TEST(CampaignEngine, PolicyDefaultsFlowIntoCorpusAndTools) {
  CampaignEngine Engine(
      ExecutionPolicy{}.withSeed(5).withTransformationLimit(123));
  // The corpus picks up the policy seed, the tools the policy limit.
  Corpus Expected = makeCorpus(CorpusSpec{}.withSeed(5));
  ASSERT_EQ(Engine.corpus().References.size(), Expected.References.size());
  EXPECT_EQ(Engine.corpus().References[0].M.instructionCount(),
            Expected.References[0].M.instructionCount());
  ASSERT_EQ(Engine.tools().size(), 3u);
  for (const ToolConfig &Tool : Engine.tools())
    EXPECT_EQ(Tool.Options.TransformationLimit, 123u);
  EXPECT_EQ(Engine.targets().size(), 9u);
  ASSERT_NE(Engine.findTool("glsl-fuzz"), nullptr);
  EXPECT_EQ(Engine.findTool("glsl-fuzz")->SeedStream, 2u);
  EXPECT_EQ(Engine.findTool("no-such-tool"), nullptr);
}

TEST(CampaignEngine, EvaluationsAreIdenticalAcrossJobCounts) {
  CampaignEngine Serial = makeEngine(1);
  CampaignEngine Parallel = makeEngine(8);
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
  }
}

TEST(CampaignEngine, EvaluationsMatchFreeFunction) {
  // The engine's parallel path computes exactly what the single-test
  // entry point computes.
  CampaignEngine Engine = makeEngine(4);
  const ToolConfig &Tool = Engine.tools()[0];
  std::vector<TestEvaluation> Evals = Engine.evaluateTests(Tool, 16);
  ASSERT_EQ(Evals.size(), 16u);
  for (size_t I = 0; I < Evals.size(); ++I) {
    TestEvaluation Expected = evaluateTest(Engine.corpus(), Tool,
                                           Engine.targets(),
                                           Engine.policy().Seed, I);
    EXPECT_EQ(Evals[I].Seed, Expected.Seed);
    EXPECT_EQ(Evals[I].ReferenceIndex, Expected.ReferenceIndex);
    EXPECT_EQ(Evals[I].Signatures, Expected.Signatures);
  }
}

TEST(CampaignEngine, BugFindingIsIdenticalAcrossJobCounts) {
  BugFindingConfig Config;
  Config.TestsPerTool = 60;
  Config.NumGroups = 5;

  CampaignEngine Serial = makeEngine(1);
  BugFindingData A = Serial.runBugFinding(Config);
  CampaignEngine Parallel = makeEngine(8);
  BugFindingData B = Parallel.runBugFinding(Config);

  EXPECT_EQ(A.ToolNames, B.ToolNames);
  EXPECT_EQ(A.TargetNames, B.TargetNames);
  ASSERT_EQ(A.Stats.size(), B.Stats.size());
  for (const auto &[Tool, PerTarget] : A.Stats) {
    ASSERT_TRUE(B.Stats.count(Tool)) << Tool;
    for (const auto &[TargetName, Stats] : PerTarget) {
      ASSERT_TRUE(B.Stats.at(Tool).count(TargetName))
          << Tool << "/" << TargetName;
      const ToolTargetStats &Other = B.Stats.at(Tool).at(TargetName);
      EXPECT_EQ(Stats.Distinct, Other.Distinct) << Tool << "/" << TargetName;
      EXPECT_EQ(Stats.PerGroup, Other.PerGroup) << Tool << "/" << TargetName;
    }
  }
  // And the campaign found something, so the comparison is not vacuous.
  size_t TotalDistinct = 0;
  for (const auto &[Tool, PerTarget] : A.Stats)
    for (const auto &[TargetName, Stats] : PerTarget)
      TotalDistinct += Stats.Distinct.size();
  EXPECT_GT(TotalDistinct, 0u);
}

TEST(CampaignEngine, ReductionsAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;

  CampaignEngine Serial = makeEngine(1);
  ReductionData A = Serial.runReductions(Config);
  CampaignEngine Parallel = makeEngine(8);
  ReductionData B = Parallel.runReductions(Config);

  ASSERT_EQ(A.Records.size(), B.Records.size());
  EXPECT_GT(A.Records.size(), 0u);
  for (size_t I = 0; I < A.Records.size(); ++I) {
    const ReductionRecord &X = A.Records[I], &Y = B.Records[I];
    EXPECT_EQ(X.Tool, Y.Tool) << "record " << I;
    EXPECT_EQ(X.TargetName, Y.TargetName) << "record " << I;
    EXPECT_EQ(X.Signature, Y.Signature) << "record " << I;
    EXPECT_EQ(X.TestIndex, Y.TestIndex) << "record " << I;
    EXPECT_EQ(X.OriginalCount, Y.OriginalCount) << "record " << I;
    EXPECT_EQ(X.UnreducedCount, Y.UnreducedCount) << "record " << I;
    EXPECT_EQ(X.ReducedCount, Y.ReducedCount) << "record " << I;
    EXPECT_EQ(X.MinimizedLength, Y.MinimizedLength) << "record " << I;
    EXPECT_EQ(X.Checks, Y.Checks) << "record " << I;
    EXPECT_EQ(X.Types, Y.Types) << "record " << I;
  }
}

void expectSameReductionRecords(const ReductionData &A,
                                const ReductionData &B) {
  ASSERT_EQ(A.Records.size(), B.Records.size());
  EXPECT_GT(A.Records.size(), 0u);
  for (size_t I = 0; I < A.Records.size(); ++I) {
    const ReductionRecord &X = A.Records[I], &Y = B.Records[I];
    EXPECT_EQ(X.Tool, Y.Tool) << "record " << I;
    EXPECT_EQ(X.TargetName, Y.TargetName) << "record " << I;
    EXPECT_EQ(X.Signature, Y.Signature) << "record " << I;
    EXPECT_EQ(X.TestIndex, Y.TestIndex) << "record " << I;
    EXPECT_EQ(X.ReducedCount, Y.ReducedCount) << "record " << I;
    EXPECT_EQ(X.MinimizedLength, Y.MinimizedLength) << "record " << I;
    EXPECT_EQ(X.Checks, Y.Checks) << "record " << I;
    EXPECT_EQ(X.Types, Y.Types) << "record " << I;
  }
}

/// Logs every observer callback, in order, as one line each.
class RecordingObserver : public CampaignObserver {
public:
  std::vector<std::string> Log;

  void onPhaseStarted(const std::string &Phase, size_t StartWave,
                      size_t Total) override {
    add("phase " + Phase, {StartWave, Total});
  }
  void onBugFound(const std::string &Phase, size_t WaveEnd, size_t TestIndex,
                  const std::string &Target,
                  const std::string &Signature) override {
    add("bug " + Phase + " " + Target + " " + Signature,
        {WaveEnd, TestIndex});
  }
  void onTargetQuarantined(const std::string &Phase, size_t WaveEnd,
                           const std::string &Target) override {
    add("quarantined " + Phase + " " + Target, {WaveEnd});
  }
  void onReductionStep(const std::string &Phase, size_t WaveEnd,
                       const ReductionRecord &Record) override {
    add("reduced " + Phase + " " + Record.TargetName + " " +
            Record.Signature,
        {WaveEnd, Record.TestIndex, Record.ReducedCount, Record.Checks,
         Record.SpeculativeChecks});
  }
  void onWaveCommitted(const std::string &Phase, size_t WaveEnd,
                       size_t Total, size_t Count) override {
    add("wave " + Phase, {WaveEnd, Total, Count});
  }
  void onCheckpointSaved(const std::string &Phase, size_t WaveEnd) override {
    add("saved " + Phase, {WaveEnd});
  }

private:
  void add(std::string Line, std::initializer_list<size_t> Numbers) {
    for (size_t Number : Numbers)
      Line += " " + std::to_string(Number);
    Log.push_back(std::move(Line));
  }
};

size_t countLines(const std::vector<std::string> &Log,
                  const std::string &Prefix) {
  size_t N = 0;
  for (const std::string &Line : Log)
    N += Line.rfind(Prefix, 0) == 0;
  return N;
}

/// An in-memory checkpointer that starts empty and logs every save and
/// every reproducer handed to it, in order.
class RecordingCheckpointer : public CampaignCheckpointer {
public:
  std::vector<std::string> Log;

  bool loadEvaluation(const std::string &, EvaluationCheckpoint &) override {
    return false;
  }
  void saveEvaluation(const EvaluationCheckpoint &C) override {
    Log.push_back("eval " + C.Phase + " " + std::to_string(C.NextWave));
  }
  bool loadReduction(const std::string &, ReductionCheckpoint &) override {
    return false;
  }
  void saveReduction(const ReductionCheckpoint &C) override {
    std::string Line = "reduce " + C.Phase + " " +
                       std::to_string(C.NextWave) + " " +
                       std::to_string(C.Complete) + " " +
                       std::to_string(C.ReductionsDone);
    for (const ReductionRecord &Record : C.Records)
      Line += " " + std::to_string(Record.TestIndex) + ":" +
              std::to_string(Record.Checks);
    Log.push_back(Line);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Log.push_back("repro " + Record.Tool + " " + Record.TargetName + " " +
                  Record.Signature + " " + std::to_string(Record.TestIndex) +
                  " " + std::to_string(hashModule(Original)) + " " +
                  std::to_string(hashModule(Reduced)) + " " +
                  std::to_string(Minimized.size()));
  }
};

TEST(CampaignEngine, ReductionScheduleIsIdenticalAcrossJobCounts) {
  // At jobs > 1 each wave's reductions run side by side on the pool while
  // the next wave's scan queues behind them; commits stay serial. Records
  // (Checks included) and the exact sequence of observer and checkpointer
  // calls must match the serial run, over both reducing tools and the
  // dedup phase, and no campaign reduction ever speculates.
  ReductionConfig Config;
  Config.TestsPerTool = 80;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 10;

  struct Run {
    ReductionData Reductions;
    DedupData Dedup;
    std::vector<std::string> Events;
    std::vector<std::string> Saves;
  };
  auto runAt = [&](size_t Jobs) {
    CampaignEngine Engine = makeEngine(Jobs);
    RecordingObserver Observer;
    RecordingCheckpointer Checkpointer;
    Engine.setObserver(&Observer);
    Engine.setCheckpointer(&Checkpointer);
    Run R;
    R.Reductions = Engine.runReductions(Config);
    R.Dedup = Engine.runDedup(Config);
    R.Events = std::move(Observer.Log);
    R.Saves = std::move(Checkpointer.Log);
    return R;
  };

  Run Serial = runAt(1);
  // Several reduction waves committed, so the overlap is exercised.
  EXPECT_GE(countLines(Serial.Events, "wave reduce/spirv-fuzz/"), 2u);
  EXPECT_GE(countLines(Serial.Events, "wave reduce/glsl-fuzz/"), 2u);
  ASSERT_FALSE(Serial.Saves.empty());

  for (size_t Jobs : {size_t(2), size_t(4), size_t(8)}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    Run Parallel = runAt(Jobs);
    expectSameReductionRecords(Serial.Reductions, Parallel.Reductions);
    EXPECT_EQ(Serial.Dedup.Total.Tests, Parallel.Dedup.Total.Tests);
    EXPECT_EQ(Serial.Dedup.Total.Reports, Parallel.Dedup.Total.Reports);
    EXPECT_EQ(Serial.Dedup.Total.Distinct, Parallel.Dedup.Total.Distinct);
    EXPECT_EQ(Serial.Events, Parallel.Events);
    EXPECT_EQ(Serial.Saves, Parallel.Saves);
    for (const ReductionRecord &Record : Parallel.Reductions.Records)
      EXPECT_EQ(Record.SpeculativeChecks, 0u);
  }
}

TEST(CampaignEngine, ReductionDeadlineMidPhaseReturnsAPrefix) {
  // The deadline fires after the first reduction wave has committed, while
  // the second wave's scan is already in flight on the pool. The phase
  // must cancel and drain it and return the committed prefix.
  ReductionConfig Config;
  Config.TestsPerTool = 80;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 10;
  ReductionData Full = makeEngine(4).runReductions(Config);

  /// Holds the first committed wave until the deadline has passed.
  class StallFirstWave : public CampaignObserver {
  public:
    explicit StallFirstWave(const CampaignEngine &Engine) : Engine(Engine) {}
    size_t Waves = 0;
    void onWaveCommitted(const std::string &, size_t, size_t,
                         size_t) override {
      if (Waves++ == 0)
        while (!Engine.deadlineExpired())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

  private:
    const CampaignEngine &Engine;
  };

  CampaignEngine Engine(ExecutionPolicy{}
                            .withJobs(4)
                            .withTransformationLimit(120)
                            .withDeadline(std::chrono::milliseconds(1000)),
                        smallCorpus());
  StallFirstWave Observer(Engine);
  Engine.setObserver(&Observer);
  ReductionData Cut = Engine.runReductions(Config);

  EXPECT_EQ(Observer.Waves, 1u);
  ASSERT_LT(Cut.Records.size(), Full.Records.size());
  for (size_t I = 0; I < Cut.Records.size(); ++I) {
    EXPECT_EQ(Cut.Records[I].TestIndex, Full.Records[I].TestIndex);
    EXPECT_EQ(Cut.Records[I].TargetName, Full.Records[I].TargetName);
    EXPECT_EQ(Cut.Records[I].Signature, Full.Records[I].Signature);
    EXPECT_EQ(Cut.Records[I].Checks, Full.Records[I].Checks);
  }
}

TEST(CampaignEngine, EvalCacheAndSnapshotKnobsNeverChangeResults) {
  // Reduction results with memoization and snapshots disabled must match
  // the default configuration exactly; only the evaluation counts differ.
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;

  CampaignEngine Default = makeEngine(1);
  ReductionData A = Default.runReductions(Config);
  EXPECT_GT(Default.evalCache().hitCount(), 0u)
      << "reduction re-evaluates identical variants; the cache must absorb "
         "some of them";

  CampaignEngine Uncached(ExecutionPolicy{}
                              .withJobs(1)
                              .withTransformationLimit(120)
                              .withEvalCacheBudget(0)
                              .withReplaySnapshotInterval(0),
                          smallCorpus());
  ReductionData B = Uncached.runReductions(Config);
  EXPECT_EQ(Uncached.evalCache().entryCount(), 0u);
  EXPECT_EQ(Uncached.evalCache().hitCount(), 0u);

  expectSameReductionRecords(A, B);
}

TEST(CampaignEngine, DedupClassesAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 3;
  Config.MaxReductionsPerTool = 10;

  CampaignEngine Serial = makeEngine(1);
  DedupData A = Serial.runDedup(Config);
  CampaignEngine Parallel = makeEngine(8);
  DedupData B = Parallel.runDedup(Config);

  ASSERT_EQ(A.PerTarget.size(), B.PerTarget.size());
  for (size_t I = 0; I < A.PerTarget.size(); ++I) {
    EXPECT_EQ(A.PerTarget[I].TargetName, B.PerTarget[I].TargetName);
    EXPECT_EQ(A.PerTarget[I].Tests, B.PerTarget[I].Tests);
    EXPECT_EQ(A.PerTarget[I].Sigs, B.PerTarget[I].Sigs);
    EXPECT_EQ(A.PerTarget[I].Reports, B.PerTarget[I].Reports);
    EXPECT_EQ(A.PerTarget[I].Distinct, B.PerTarget[I].Distinct);
    EXPECT_EQ(A.PerTarget[I].Dups, B.PerTarget[I].Dups);
  }
  EXPECT_EQ(A.Total.Tests, B.Total.Tests);
  EXPECT_EQ(A.Total.Reports, B.Total.Reports);
  EXPECT_EQ(A.Total.Distinct, B.Total.Distinct);
  EXPECT_GT(A.Total.Tests, 0u);
}

TEST(CampaignEngine, MetricsCounterTotalsAreIdenticalAcrossJobCounts) {
  // Counter totals are commutative sums, so they must not depend on how
  // jobs interleave. (Each gtest binary test runs in its own process, so
  // resetting the global registry here cannot race another test.)
  using telemetry::MetricsRegistry;
  BugFindingConfig Config;
  Config.TestsPerTool = 40;
  Config.NumGroups = 4;

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  {
    CampaignEngine Serial = makeEngine(1);
    Serial.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> SerialCounters =
      MetricsRegistry::global().snapshot().Counters;

  MetricsRegistry::global().reset();
  {
    CampaignEngine Parallel = makeEngine(8);
    Parallel.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> ParallelCounters =
      MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(SerialCounters, ParallelCounters);
  EXPECT_FALSE(SerialCounters.empty());
}

TEST(CampaignEngine, DeadlineTruncatesWork) {
  CampaignEngine Engine(ExecutionPolicy{}
                            .withJobs(2)
                            .withTransformationLimit(120)
                            .withDeadline(std::chrono::milliseconds(1)),
                        smallCorpus());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(Engine.deadlineExpired());
  // An expired deadline means no new work is issued.
  std::vector<TestEvaluation> Evals =
      Engine.evaluateTests(Engine.tools()[0], 64);
  EXPECT_TRUE(Evals.empty());
  BugFindingData Data = Engine.runBugFinding(BugFindingConfig{});
  for (const auto &[Tool, PerTarget] : Data.Stats)
    for (const auto &[TargetName, Stats] : PerTarget)
      EXPECT_TRUE(Stats.Distinct.empty()) << Tool << "/" << TargetName;
}

TEST(CampaignEngine, NoDeadlineNeverExpires) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(120),
                        smallCorpus());
  EXPECT_FALSE(Engine.deadlineExpired());
}

//===----------------------------------------------------------------------===//
// Faulty-fleet determinism
//===----------------------------------------------------------------------===//

CampaignEngine makeFaultyEngine(size_t Jobs) {
  return CampaignEngine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(120),
      smallCorpus(), ToolsetSpec{}, TargetFleet::faulty());
}

TEST(CampaignEngine, FaultyFleetEvaluationsAreIdenticalAcrossJobCounts) {
  // The tentpole determinism contract: with flaky bugs, tool errors and
  // quarantine in the loop, --jobs 8 still reproduces --jobs 1 exactly —
  // including which targets tool-errored on each test.
  CampaignEngine Serial = makeFaultyEngine(1);
  CampaignEngine Parallel = makeFaultyEngine(8);
  size_t ToolErrors = 0;
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].ToolErrored, B[I].ToolErrored)
          << Tool.Name << " test " << I;
      ToolErrors += A[I].ToolErrored.size();
    }
  }
  // The faulty rows actually misbehaved, so the comparison is not vacuous.
  EXPECT_GT(ToolErrors, 0u);
  // Pixel-3's 80% tool-error rate must trip its breaker identically.
  EXPECT_EQ(Serial.harness().quarantined("Pixel-3"),
            Parallel.harness().quarantined("Pixel-3"));
  EXPECT_TRUE(Serial.harness().quarantined("Pixel-3"));
}

TEST(CampaignEngine, FaultyFleetReductionsAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;
  // The faulty rows on top of the default GPU-less reduction set.
  Config.TargetNames = TargetFleet::faulty().gpulessNames();
  Config.TargetNames.push_back("Pixel-3");

  CampaignEngine Serial = makeFaultyEngine(1);
  ReductionData A = Serial.runReductions(Config);
  CampaignEngine Parallel = makeFaultyEngine(8);
  ReductionData B = Parallel.runReductions(Config);

  expectSameReductionRecords(A, B);
}

TEST(CampaignEngine, FaultyFleetDedupIsIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 3;
  Config.MaxReductionsPerTool = 10;

  CampaignEngine Serial = makeFaultyEngine(1);
  DedupData A = Serial.runDedup(Config);
  CampaignEngine Parallel = makeFaultyEngine(8);
  DedupData B = Parallel.runDedup(Config);

  ASSERT_EQ(A.PerTarget.size(), B.PerTarget.size());
  for (size_t I = 0; I < A.PerTarget.size(); ++I) {
    EXPECT_EQ(A.PerTarget[I].TargetName, B.PerTarget[I].TargetName);
    EXPECT_EQ(A.PerTarget[I].Tests, B.PerTarget[I].Tests);
    EXPECT_EQ(A.PerTarget[I].Sigs, B.PerTarget[I].Sigs);
    EXPECT_EQ(A.PerTarget[I].Reports, B.PerTarget[I].Reports);
    EXPECT_EQ(A.PerTarget[I].Distinct, B.PerTarget[I].Distinct);
    EXPECT_EQ(A.PerTarget[I].Dups, B.PerTarget[I].Dups);
  }
  EXPECT_EQ(A.Total.Tests, B.Total.Tests);
  EXPECT_EQ(A.Total.Reports, B.Total.Reports);
  EXPECT_EQ(A.Total.Distinct, B.Total.Distinct);
}

TEST(CampaignEngine, FaultyFleetNeverConsultsEvalCacheForFlakyTargets) {
  // The cache-poisoning guard: a flaky target's runs depend on the attempt
  // draw and must bypass memoization entirely. evalcache.flaky_consults is
  // the CI-asserted alarm counter; a faulty-fleet campaign must leave it at
  // zero while exercising the harness (retries, timeouts).
  using telemetry::MetricsRegistry;
  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  {
    ReductionConfig Config;
    Config.TestsPerTool = 40;
    Config.CapPerSignature = 2;
    Config.MaxReductionsPerTool = 6;
    CampaignEngine Engine = makeFaultyEngine(2);
    Engine.runDedup(Config);
  }
  std::map<std::string, uint64_t> Counters =
      MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(Counters.count("evalcache.flaky_consults"), 0u);
  EXPECT_GT(Counters["harness.tool_errors"], 0u);
}

CampaignEngine makeEngineWith(size_t Jobs, ExecEngine Engine,
                              size_t UniformInputs = 1) {
  return CampaignEngine(ExecutionPolicy{}
                            .withJobs(Jobs)
                            .withTransformationLimit(120)
                            .withEngine(Engine)
                            .withUniformInputs(UniformInputs),
                        smallCorpus());
}

TEST(CampaignEngine, TreeAndLoweredEnginesProduceIdenticalEvaluations) {
  // The Executable contract: routing every execution through the lowered
  // bytecode engine changes only cost, never a decision.
  CampaignEngine Lowered = makeEngineWith(4, ExecEngine::Lowered);
  CampaignEngine Tree = makeEngineWith(4, ExecEngine::Tree);
  for (const ToolConfig &Tool : Lowered.tools()) {
    std::vector<TestEvaluation> A = Lowered.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Tree.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
  }
}

TEST(CampaignEngine, TreeAndLoweredEnginesProduceIdenticalCounters) {
  // Stronger than result equality: the two engines publish the very same
  // counter totals (exec.runs, exec.steps, target.*, opt.*), so any
  // telemetry-derived gate sees one execution semantics.
  using telemetry::MetricsRegistry;
  BugFindingConfig Config;
  Config.TestsPerTool = 40;
  Config.NumGroups = 4;

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  {
    CampaignEngine Lowered = makeEngineWith(2, ExecEngine::Lowered);
    Lowered.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> LoweredCounters =
      MetricsRegistry::global().snapshot().Counters;

  MetricsRegistry::global().reset();
  {
    CampaignEngine Tree = makeEngineWith(2, ExecEngine::Tree);
    Tree.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> TreeCounters =
      MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(LoweredCounters, TreeCounters);
  EXPECT_GT(LoweredCounters["exec.runs"], 0u);
}

TEST(CampaignEngine, UniformInputBatchesAreIdenticalAcrossJobCounts) {
  // Batched evaluation (K perturbed inputs per test, amortized over one
  // lowering) keeps the scan deterministic at any job count.
  CampaignEngine Serial =
      makeEngineWith(1, ExecEngine::Lowered, /*UniformInputs=*/4);
  CampaignEngine Parallel =
      makeEngineWith(8, ExecEngine::Lowered, /*UniformInputs=*/4);
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
  }
}

} // namespace

//===- perfbench/src/Workloads.cpp - Engine-driven campaign parts ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Journal.h"
#include "store/CampaignStore.h"
#include "support/ModuleHash.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

using namespace spvfuzz;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// Forwards every CampaignCheckpointer call to the store, timing the
/// writes as "store.write" spans in the traced run.
class TimedCheckpointer : public CampaignCheckpointer {
public:
  TimedCheckpointer(CampaignCheckpointer &Inner, SpanRecorder *Spans)
      : Inner(Inner), Spans(Spans) {}

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    return Inner.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    SpanRecorder::Scope S(Spans, "store.write");
    Inner.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    return Inner.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    SpanRecorder::Scope S(Spans, "store.write");
    Inner.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    SpanRecorder::Scope S(Spans, "store.write");
    Inner.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

private:
  CampaignCheckpointer &Inner;
  SpanRecorder *Spans;
};

/// Records bug rows and wave-commit gaps, and forwards every event to the
/// journal observer (when one is attached), timing it as an
/// "obs.journal_append" span in the traced run.
class TapObserver : public CampaignObserver {
public:
  TapObserver(ObserverLog &Log, CampaignObserver *Inner, SpanRecorder *Spans)
      : Log(Log), Inner(Inner), Spans(Spans) {}

  void onPhaseStarted(const std::string &Phase, size_t StartWave,
                      size_t Total) override {
    LastMark = Clock::now();
    forward([&](CampaignObserver &O) {
      O.onPhaseStarted(Phase, StartWave, Total);
    });
  }
  void onBugFound(const std::string &Phase, size_t WaveEnd, size_t TestIndex,
                  const std::string &Target,
                  const std::string &Signature) override {
    Log.Bugs.push_back({Phase, TestIndex, Target, Signature});
    forward([&](CampaignObserver &O) {
      O.onBugFound(Phase, WaveEnd, TestIndex, Target, Signature);
    });
  }
  void onTargetQuarantined(const std::string &Phase, size_t WaveEnd,
                           const std::string &Target) override {
    forward([&](CampaignObserver &O) {
      O.onTargetQuarantined(Phase, WaveEnd, Target);
    });
  }
  void onReductionStep(const std::string &Phase, size_t WaveEnd,
                       const ReductionRecord &Record) override {
    forward([&](CampaignObserver &O) {
      O.onReductionStep(Phase, WaveEnd, Record);
    });
  }
  void onPostReduceStep(const std::string &Phase, size_t WaveEnd,
                        const ReductionRecord &Record,
                        const PostReducePassStats &Stat) override {
    forward([&](CampaignObserver &O) {
      O.onPostReduceStep(Phase, WaveEnd, Record, Stat);
    });
  }
  void onWaveCommitted(const std::string &Phase, size_t WaveEnd, size_t Total,
                       size_t Count) override {
    // Dedup "waves" are per-target bookkeeping, not scheduling waves.
    if (Phase != "dedup") {
      Clock::time_point Now = Clock::now();
      Log.WaveGapsMs.push_back(
          std::chrono::duration<double, std::milli>(Now - LastMark).count());
      LastMark = Now;
    }
    forward([&](CampaignObserver &O) {
      O.onWaveCommitted(Phase, WaveEnd, Total, Count);
    });
  }
  void onCheckpointSaved(const std::string &Phase, size_t WaveEnd) override {
    forward([&](CampaignObserver &O) { O.onCheckpointSaved(Phase, WaveEnd); });
  }

private:
  template <typename Fn> void forward(Fn &&Call) {
    if (!Inner)
      return;
    SpanRecorder::Scope S(Spans, "obs.journal_append");
    Call(*Inner);
  }

  ObserverLog &Log;
  CampaignObserver *Inner;
  SpanRecorder *Spans;
  Clock::time_point LastMark = Clock::now();
};

uint64_t fileBytes(const fs::path &Path) {
  std::error_code Ec;
  uintmax_t Size = fs::file_size(Path, Ec);
  return Ec ? 0 : static_cast<uint64_t>(Size);
}

uint64_t treeBytes(const fs::path &Root) {
  uint64_t Total = 0;
  std::error_code Ec;
  for (fs::recursive_directory_iterator It(Root, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->is_regular_file(Ec))
      Total += fileBytes(It->path());
  return Total;
}

class Fnv {
public:
  void add(const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ULL;
    H = (H ^ 0xff) * 0x100000001b3ULL; // field separator
  }
  void add(uint64_t V) { add(std::to_string(V)); }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Starts a part's counter window: the registry is process-wide, so each
/// part reads only what it added itself.
void resetRegistry() { telemetry::MetricsRegistry::global().reset(); }

EngineCounters engineCounters(const CampaignEngine &Engine) {
  EngineCounters Out;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled())
    Out.Registry = Metrics.snapshot().Counters;
  Out.Campaign = Out.Registry;
  Out.EvalHits = Engine.evalCache().hitCount();
  Out.EvalMisses = Engine.evalCache().missCount();
  Out.ExeHits = Engine.executableCache().hitCount();
  Out.ExeMisses = Engine.executableCache().missCount();
  return Out;
}

} // namespace

ExecutionPolicy campaignPolicy(uint64_t Seed, uint32_t Limit, size_t Jobs) {
  ExecutionPolicy Policy;
  Policy.withJobs(Jobs).withSeed(Seed).withTransformationLimit(Limit);
  return Policy;
}

ReductionConfig dedupConfig(const DedupSpec &Spec, const TargetFleet &Fleet) {
  ReductionConfig Config;
  Config.TestsPerTool = Spec.TestsPerTool;
  Config.CapPerSignature = Spec.CapPerSignature;
  // The cap, not a budget, bounds the work: every capped reproducer of
  // every scanned test is reduced.
  Config.MaxReductionsPerTool = Spec.TestsPerTool * Fleet.size();
  Config.TargetNames = Fleet.gpulessNames();
  return Config;
}

ScanResult runScan(uint64_t Seed, const ScanSpec &Spec, size_t Jobs) {
  ScanResult Out;
  resetRegistry();
  Clock::time_point SetupStart = Clock::now();
  CampaignEngine Engine(campaignPolicy(Seed, Spec.Limit, Jobs));
  Out.SetupSeconds = secondsSince(SetupStart);

  TapObserver Tap(Out.Log, nullptr, nullptr);
  Engine.setObserver(&Tap);
  BugFindingConfig Config;
  Config.TestsPerTool = Spec.TestsPerTool;
  Clock::time_point Start = Clock::now();
  Engine.runBugFinding(Config);
  Out.Seconds = secondsSince(Start);
  Out.Tests = Spec.TestsPerTool * Engine.tools().size();
  Out.Engine = engineCounters(Engine);
  Out.Digest = digestBugs(Out.Log.Bugs);
  return Out;
}

DedupResult runDedupCampaign(uint64_t Seed, const DedupSpec &Spec,
                             size_t Jobs, const std::string &WorkDir,
                             SpanRecorder *Spans) {
  DedupResult Out;
  // One store per process, so concurrent runs in one checkout never share
  // a store directory.
  const fs::path StoreDir =
      fs::path(WorkDir) / ("store-" + std::to_string(::getpid()));
  fs::remove_all(StoreDir);
  ExecutionPolicy Policy = campaignPolicy(Seed, Spec.Limit, Jobs);
  Policy.withStorePath(StoreDir.string());

  resetRegistry();
  Clock::time_point SetupStart = Clock::now();
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Policy.StorePath, Policy, Error);
  if (!Store)
    throw std::runtime_error("store open failed: " + Error);
  std::unique_ptr<obs::JournalWriter> Journal = obs::JournalWriter::open(
      Policy.StorePath, /*Resume=*/false, /*Deterministic=*/false, Error);
  if (!Journal)
    throw std::runtime_error("journal open failed: " + Error);
  obs::JournalObserver JournalObs(*Journal);
  CampaignEngine Engine(Policy);
  Out.SetupSeconds = secondsSince(SetupStart);

  obs::JournalEvent Started;
  Started.Kind = obs::JournalEventKind::CampaignStarted;
  Started.Campaign = Store->campaignId();
  Started.Seed = Policy.Seed;
  Started.Limit = Policy.TransformationLimit;
  Started.Total = Spec.TestsPerTool;
  Journal->append(std::move(Started));
  Journal->commit();

  TimedCheckpointer Checkpointer(*Store, Spans);
  TapObserver Tap(Out.Log, &JournalObs, Spans);
  Engine.setCheckpointer(&Checkpointer);
  Engine.setObserver(&Tap);
  Engine.setReproducerSink([&Out](const ReductionRecord &Record,
                                  const Module &, const ShaderInput &Input,
                                  const Module &Reduced,
                                  const TransformationSequence &) {
    Out.Reproducers.push_back({Record, Input, Reduced});
  });

  Clock::time_point Start = Clock::now();
  Out.Dedup = Engine.runDedup(dedupConfig(Spec, Engine.fleet()));
  const EngineCounters BeforeTriage = engineCounters(Engine);
  std::vector<triage::TriageItem> Items;
  Items.reserve(Out.Reproducers.size());
  for (const Reproducer &R : Out.Reproducers)
    Items.push_back({R.Record.TargetName, R.Record.Signature, R.Reduced,
                     R.Input});
  Out.Attributions = triage::attributeAll(
      Engine.fleet(), Items, triage::TriageOptions{}.withJobs(Jobs));
  Out.Seconds = secondsSince(Start);
  Out.Engine = engineCounters(Engine);
  Out.Engine.Campaign = BeforeTriage.Registry;

  obs::JournalEvent Finished;
  Finished.Kind = obs::JournalEventKind::CampaignFinished;
  Finished.Campaign = Store->campaignId();
  Journal->append(std::move(Finished));
  Journal->commit();

  Out.JournalBytes = fileBytes(obs::journalPathFor(Policy.StorePath));
  Out.StoreBytes = treeBytes(StoreDir) - Out.JournalBytes;
  Out.Digest = digestDedup(Out.Reproducers, Out.Dedup, Out.Attributions);
  Journal.reset();
  Store.reset();
  fs::remove_all(StoreDir);
  return Out;
}

std::string digestBugs(const std::vector<BugRow> &Bugs) {
  Fnv H;
  for (const BugRow &B : Bugs) {
    H.add(B.Phase);
    H.add(B.Test);
    H.add(B.Target);
    H.add(B.Signature);
  }
  return H.hex();
}

std::string digestDedup(const std::vector<Reproducer> &Reproducers,
                        const DedupData &Dedup,
                        const std::vector<triage::BugAttribution> &Attrs) {
  Fnv H;
  for (const Reproducer &R : Reproducers) {
    const ReductionRecord &Rec = R.Record;
    H.add(Rec.Tool);
    H.add(Rec.TargetName);
    H.add(Rec.Signature);
    H.add(Rec.TestIndex);
    H.add(Rec.OriginalCount);
    H.add(Rec.UnreducedCount);
    H.add(Rec.ReducedCount);
    H.add(Rec.MinimizedLength);
    H.add(Rec.Checks);
    for (TransformationKind K : Rec.Types)
      H.add(static_cast<uint64_t>(K));
    H.add(hashModule(R.Reduced));
  }
  for (const DedupTargetResult &Row : Dedup.PerTarget) {
    H.add(Row.TargetName);
    H.add(Row.Tests);
    H.add(Row.Sigs);
    H.add(Row.Reports);
    H.add(Row.Distinct);
  }
  for (const triage::BugAttribution &A : Attrs) {
    H.add(static_cast<uint64_t>(A.Verdict));
    H.add(A.culpritLabel());
    H.add(A.BisectionChecks);
    H.add(A.PassRuns);
    H.add(static_cast<uint64_t>(static_cast<int64_t>(A.DivergenceIndex)));
  }
  return H.hex();
}

double medianDelta(const std::vector<Reproducer> &Reproducers) {
  std::vector<ReductionRecord> Records;
  Records.reserve(Reproducers.size());
  for (const Reproducer &R : Reproducers)
    Records.push_back(R.Record);
  return ReductionData::medianDelta(Records);
}

} // namespace perfbench

//===- perfbench/src/Main.cpp - The repo benchmark ------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload scan|reduce|parallel --seed N --seconds S --trace 0|1
///           [--expected FILE] [--work-dir DIR] [--scale full|tiny]
/// perfbench --record FILE [--scale full|tiny]
///
/// Untraced (--trace 0): repeats the workload's campaign for S seconds
/// with in-program telemetry off, checks every repetition's decision
/// digests against the recorded ones, and prints the end-to-end metrics. Traced (--trace 1): runs the campaign
/// through the engine (telemetry off, then twice with telemetry on for
/// counters), re-drives the same inputs through the public layer calls
/// with a span around each, checks the re-drive's fidelity, writes the
/// spans to the work directory and prints the per-layer metrics. The last
/// stdout line is always one JSON object: correct, attempted, failed,
/// metrics.
///
//===----------------------------------------------------------------------===//

#include "Redrive.h"
#include "Workloads.h"

#include "support/Telemetry.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace perfbench;
using namespace spvfuzz;
namespace fs = std::filesystem;

namespace {

/// Seeds map onto a pool of campaign seeds whose decision digests are
/// recorded in expected_digests.txt: seed N runs campaign seed
/// PoolBase + N mod PoolSize, so any seed is checked against a digest
/// recorded in advance.
constexpr uint64_t PoolBase = 1000;
constexpr uint64_t PoolSize = 20;

uint64_t campaignSeed(uint64_t Seed) { return PoolBase + Seed % PoolSize; }

/// Repetitions every untraced run completes, whatever --seconds says.
constexpr size_t MinReps = 5;

/// One workload: the two campaign parts it runs and the worker count.
struct Workload {
  std::string Name;
  ScanSpec Scan;
  DedupSpec Dedup;
  size_t Jobs = 1;
};

/// Part sizes. Full scale is what the benchmark measures; tiny scale exists
/// for the benchmark's own tests.
struct Scale {
  size_t ScanTests;      // tests per tool of the big scan (3 tools)
  size_t SideDedupTests; // the scan workload's small dedup campaign
  size_t DedupTests;     // the reduce workload's dedup campaign
};

constexpr Scale FullScale{64, 32, 160};
constexpr Scale TinyScale{6, 24, 40};

bool makeWorkload(const std::string &Name, const Scale &S, Workload &Out) {
  Out.Name = Name;
  if (Name == "scan") {
    Out.Scan.TestsPerTool = S.ScanTests;
    Out.Dedup.TestsPerTool = S.SideDedupTests;
  } else if (Name == "reduce") {
    Out.Dedup.TestsPerTool = S.DedupTests;
  } else if (Name == "parallel") {
    Out.Scan.TestsPerTool = S.ScanTests;
    Out.Dedup.TestsPerTool = S.DedupTests;
    Out.Jobs = 4;
  } else {
    return false;
  }
  return true;
}

std::string scanKey(const ScanSpec &S, uint64_t CampaignSeed) {
  return "scan/" + std::to_string(S.TestsPerTool) + "/" +
         std::to_string(S.Limit) + "/" + std::to_string(CampaignSeed);
}

std::string dedupKey(const DedupSpec &S, uint64_t CampaignSeed) {
  return "dedup/" + std::to_string(S.TestsPerTool) + "/" +
         std::to_string(S.Limit) + "/" + std::to_string(S.CapPerSignature) +
         "/" + std::to_string(CampaignSeed);
}

//===----------------------------------------------------------------------===//
// Expected digests: one "key digest" pair per line.
//===----------------------------------------------------------------------===//

bool readExpected(const std::string &Path,
                  std::map<std::string, std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Key, Digest;
  while (In >> Key >> Digest)
    Out[Key] = Digest;
  return In.eof();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The highest of the standard tail percentiles that has at least ten
/// samples beyond it (nearest-rank); Percentile is 50 when there are too
/// few samples for any tail.
struct Tail {
  double Value = 0;
  double Percentile = 50;
  size_t Samples = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  T.Value = median(V);
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    double Beyond = static_cast<double>(V.size()) * (1.0 - P / 100.0);
    if (Beyond >= 10.0) {
      size_t Rank = static_cast<size_t>(
          std::ceil(P / 100.0 * static_cast<double>(V.size())));
      T.Value = V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
      T.Percentile = P;
      return T;
    }
  }
  return T;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("metric %-44s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Metrics[I].Name + "\": {\"value\": " +
            jsonNumber(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// One repetition of a workload
//===----------------------------------------------------------------------===//

struct Repetition {
  ScanResult Scan;
  DedupResult Dedup;
  double SetupSeconds = 0;
  double CampaignSeconds = 0;
  size_t Tests = 0;
  size_t Reproducers = 0;
  size_t Checks = 0;
  size_t SpeculativeChecks = 0;
};

Repetition runOnce(const Workload &W, uint64_t CampaignSeed,
                   const std::string &WorkDir, SpanRecorder *Spans = nullptr) {
  Repetition R;
  if (W.Scan.TestsPerTool) {
    R.Scan = runScan(CampaignSeed, W.Scan, W.Jobs);
    R.SetupSeconds += R.Scan.SetupSeconds;
    R.CampaignSeconds += R.Scan.Seconds;
    R.Tests += R.Scan.Tests;
  }
  if (W.Dedup.TestsPerTool) {
    R.Dedup = runDedupCampaign(CampaignSeed, W.Dedup, W.Jobs, WorkDir, Spans);
    R.SetupSeconds += R.Dedup.SetupSeconds;
    R.CampaignSeconds += R.Dedup.Seconds;
    R.Tests += W.Dedup.TestsPerTool;
    R.Reproducers = R.Dedup.Reproducers.size();
    for (const Reproducer &P : R.Dedup.Reproducers) {
      R.Checks += P.Record.Checks;
      R.SpeculativeChecks += P.Record.SpeculativeChecks;
    }
  }
  return R;
}

/// Checks one repetition's digests against the recorded ones. Returns the
/// number of failed operations: every test of a part whose bug table
/// digest differs, every reduction of a part whose reduction digest
/// differs.
uint64_t checkDigests(const Workload &W, uint64_t CampaignSeed,
                      const Repetition &R,
                      const std::map<std::string, std::string> &Expected,
                      std::vector<std::string> &Problems) {
  uint64_t Failed = 0;
  auto check = [&](const std::string &Key, const std::string &Got,
                   uint64_t Ops) {
    auto It = Expected.find(Key);
    if (It == Expected.end()) {
      Problems.push_back("no expected digest for " + Key);
      Failed += Ops;
    } else if (It->second != Got) {
      Problems.push_back("digest mismatch for " + Key + ": got " + Got +
                         ", expected " + It->second);
      Failed += Ops;
    }
  };
  if (W.Scan.TestsPerTool)
    check(scanKey(W.Scan, CampaignSeed) + "/bugs", R.Scan.Digest, R.Scan.Tests);
  if (W.Dedup.TestsPerTool) {
    check(dedupKey(W.Dedup, CampaignSeed) + "/bugs",
          digestBugs(R.Dedup.Log.Bugs), W.Dedup.TestsPerTool);
    check(dedupKey(W.Dedup, CampaignSeed) + "/reductions", R.Dedup.Digest,
          R.Reproducers);
  }
  return Failed;
}

/// An independent re-check of every reproducer, outside the reducer and
/// the engine's caches: its reduced variant must still make a fresh
/// compile of its target fail with its signature.
uint64_t recheckReproducers(const DedupResult &D,
                            std::vector<std::string> &Problems) {
  const TargetFleet Fleet = TargetFleet::standard();
  RunContext Ctx;
  Ctx.StepBudget = ExecutionPolicy{}.TargetDeadlineSteps;
  uint64_t Failed = 0;
  for (const Reproducer &P : D.Reproducers) {
    const Target *T = Fleet.find(P.Record.TargetName);
    TargetRun Run = T ? T->run(P.Reduced, P.Input, Ctx) : TargetRun();
    if (!T || !Run.interesting() || Run.Signature != P.Record.Signature) {
      ++Failed;
      Problems.push_back("reproducer for test " +
                         std::to_string(P.Record.TestIndex) + " on " +
                         P.Record.TargetName + " no longer reproduces " +
                         P.Record.Signature);
    }
  }
  return Failed;
}

//===----------------------------------------------------------------------===//
// Untraced run
//===----------------------------------------------------------------------===//

/// Deterministic summary of one repetition, compared whenever its
/// campaign seed comes round again.
struct Fingerprint {
  size_t Reproducers = 0;
  size_t Checks = 0;
  double DeltaMedian = 0;
  std::string Digests;

  bool operator==(const Fingerprint &O) const {
    return Reproducers == O.Reproducers && Checks == O.Checks &&
           DeltaMedian == O.DeltaMedian && Digests == O.Digests;
  }
};

int runUntraced(const Workload &W, uint64_t Seed, double Seconds,
                const std::map<std::string, std::string> &Expected,
                const std::string &WorkDir) {
  telemetry::MetricsRegistry::global().setEnabled(false);
  std::vector<std::string> Problems;
  std::vector<double> Setup, WaveGaps;
  double CampaignSeconds = 0;
  size_t Tests = 0, Reproducers = 0;
  std::vector<ReductionRecord> QualityRecords;
  size_t QualityChecks = 0;
  std::map<uint64_t, Fingerprint> Seen;
  uint64_t Attempted = 0, Failed = 0;
  size_t Reps = 0;
  Clock::time_point Start = Clock::now();
  // Repetition K runs the campaign seed K places after the run's own, so
  // a run measures many inputs: throughputs are the run's totals over its
  // campaign time, set-up is the median repetition's. The deterministic
  // metrics cover the first MinReps inputs, which every run completes
  // however slow the machine.
  while (Reps < MinReps || secondsSince(Start) < Seconds) {
    const uint64_t CampaignSeed = campaignSeed(Seed + Reps);
    Repetition R = runOnce(W, CampaignSeed, WorkDir);
    Attempted += R.Tests + R.Reproducers;
    Failed += checkDigests(W, CampaignSeed, R, Expected, Problems);
    std::printf("repetition %zu: campaign seed %llu, setup %.4f s, %zu tests "
                "and %zu reproducers in %.3f s\n",
                Reps, static_cast<unsigned long long>(CampaignSeed),
                R.SetupSeconds, R.Tests, R.Reproducers, R.CampaignSeconds);
    Setup.push_back(R.SetupSeconds);
    CampaignSeconds += R.CampaignSeconds;
    Tests += R.Tests;
    Reproducers += R.Reproducers;
    WaveGaps.insert(WaveGaps.end(), R.Scan.Log.WaveGapsMs.begin(),
                    R.Scan.Log.WaveGapsMs.end());
    WaveGaps.insert(WaveGaps.end(), R.Dedup.Log.WaveGapsMs.begin(),
                    R.Dedup.Log.WaveGapsMs.end());
    if (Reps < MinReps) {
      QualityChecks += R.Checks;
      for (const Reproducer &P : R.Dedup.Reproducers)
        QualityRecords.push_back(P.Record);
    }
    // Steadiness self-check: a campaign seed that comes round again must
    // repeat every deterministic count exactly.
    Fingerprint F{R.Reproducers, R.Checks, medianDelta(R.Dedup.Reproducers),
                  R.Scan.Digest + R.Dedup.Digest};
    auto [It, Fresh] = Seen.emplace(CampaignSeed, F);
    if (Fresh) {
      Failed += recheckReproducers(R.Dedup, Problems);
    } else if (!(It->second == F)) {
      Problems.push_back("benchmark defect: deterministic counts of campaign "
                         "seed " +
                         std::to_string(CampaignSeed) + " drifted");
      Failed += R.Tests + R.Reproducers;
    }
    ++Reps;
  }

  Tail Waves = tailOf(WaveGaps);
  std::printf("workload %s seed %llu: %zu repetitions in %.2f s over "
              "campaign seeds %llu.., %llu operations\n",
              W.Name.c_str(), static_cast<unsigned long long>(Seed), Reps,
              secondsSince(Start),
              static_cast<unsigned long long>(campaignSeed(Seed)),
              static_cast<unsigned long long>(Attempted));
  std::printf("wave_ms_tail is p%g of %zu wave gaps\n", Waves.Percentile,
              Waves.Samples);
  std::printf("failed_share %.6f (%llu of %llu operations)\n",
              Attempted ? static_cast<double>(Failed) /
                              static_cast<double>(Attempted)
                        : 0.0,
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  for (const std::string &P : Problems)
    std::printf("problem: %s\n", P.c_str());

  std::vector<Metric> Metrics = {
      {"setup_s", median(Setup), "s"},
      {"tests_per_s", ratio(static_cast<double>(Tests), CampaignSeconds),
       "1/s"},
      {"reproducers_per_s",
       ratio(static_cast<double>(Reproducers), CampaignSeconds), "1/s"},
      {"checks_per_reproducer",
       ratio(static_cast<double>(QualityChecks),
             static_cast<double>(QualityRecords.size())),
       "count"},
      {"reduced_delta_median", ReductionData::medianDelta(QualityRecords),
       "count"},
      {"wave_ms_p50", median(WaveGaps), "ms"},
      {"wave_ms_tail", Waves.Value, "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  printResult(Failed == 0 && Problems.empty(), Attempted, Failed, Metrics);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// The value recorded under \p Name, zero when there is none.
template <typename V>
V valueOf(const std::map<std::string, V> &Values, const std::string &Name) {
  auto It = Values.find(Name);
  return It == Values.end() ? V() : It->second;
}

uint64_t counter(const EngineCounters &C, const std::string &Name) {
  return valueOf(C.Registry, Name);
}

/// Counters that must repeat exactly between two engine runs of the same
/// inputs. At jobs > 1 speculative reduction makes the run-time counts of
/// the dedup part (target runs, cache hits) schedule-dependent; the
/// decided checks stay exact.
std::vector<std::string> steadyCounters(const EngineCounters &C,
                                        bool Exact) {
  std::vector<std::string> Names;
  for (const auto &[Name, Value] : C.Registry) {
    (void)Value;
    bool Work = Name.rfind("opt.pass_runs.", 0) == 0 || Name == "exec.runs" ||
                Name == "exec.steps" || Name == "evalcache.hits" ||
                Name == "evalcache.misses" ||
                Name.rfind("replaycache.", 0) == 0;
    if (Name == "reducer.checks" || (Exact && Work))
      Names.push_back(Name);
  }
  return Names;
}

int runTraced(const Workload &W, uint64_t Seed,
              const std::map<std::string, std::string> &Expected,
              const std::string &WorkDir) {
  const uint64_t CampaignSeed = campaignSeed(Seed);
  telemetry::MetricsRegistry &Registry = telemetry::MetricsRegistry::global();
  std::vector<std::string> Problems;
  uint64_t Failed = 0;

  // 1. The untraced wall, telemetry off.
  Registry.setEnabled(false);
  Repetition Plain = runOnce(W, CampaignSeed, WorkDir);
  Failed += checkDigests(W, CampaignSeed, Plain, Expected, Problems);

  // 2. Two engine runs with the registry on: counters, cache hit counts,
  // and the store/journal hook spans. Their deterministic counters must
  // agree exactly.
  SpanRecorder HookSpans;
  Registry.setEnabled(true);
  Repetition Counted = runOnce(W, CampaignSeed, WorkDir, &HookSpans);
  Repetition Again = runOnce(W, CampaignSeed, WorkDir);
  Registry.setEnabled(false);
  // At jobs > 1 speculation makes the dedup part's run counts
  // schedule-dependent; its decided checks stay exact.
  const bool Exact = W.Jobs == 1;
  auto checkSteady = [&](const std::string &Part, const EngineCounters &A,
                         const EngineCounters &B, bool PartExact) {
    for (const std::string &Name : steadyCounters(A, PartExact))
      if (counter(A, Name) != counter(B, Name))
        Problems.push_back("benchmark defect: " + Part + " counter " + Name +
                           " drifted between runs");
    if (PartExact && (A.EvalHits != B.EvalHits || A.ExeHits != B.ExeHits))
      Problems.push_back("benchmark defect: " + Part +
                         " cache hit counts drifted between runs");
  };
  checkSteady("scan", Counted.Scan.Engine, Again.Scan.Engine, true);
  checkSteady("dedup", Counted.Dedup.Engine, Again.Dedup.Engine, Exact);

  // 3. The re-drive, with a span around every public layer call.
  SpanRecorder Spans;
  RedriveOutcome Re = redrive(CampaignSeed, W.Scan, W.Dedup, Counted.Scan,
                             Counted.Dedup, Spans);
  for (const std::string &M : Re.Mismatches)
    Problems.push_back("fidelity: " + M);

  // Cache-blind counters against the engine's (the dedup part only at
  // jobs 1, where no speculative check adds runs). Checks are compared per
  // reduction inside the re-drive: the registry's reducer.checks counts
  // the delta-debugging stage only, while each record's Checks also holds
  // the AddFunction shrink stage's.
  auto compareCount = [&](const std::string &What, uint64_t Got,
                          uint64_t Want) {
    if (Got != Want)
      Problems.push_back("fidelity: " + What + " re-drive " +
                         std::to_string(Got) + " vs engine " +
                         std::to_string(Want));
  };
  auto checkCounts = [&](const std::string &Part, const RedriveCounts &Counts,
                         const EngineCounters &Engine) {
    std::set<std::string> Passes;
    for (const auto &[Pass, Runs] : Counts.PassRuns)
      Passes.insert(Pass);
    for (const auto &[Name, Value] : Engine.Campaign)
      if (Name.rfind("opt.pass_runs.", 0) == 0)
        Passes.insert(Name.substr(14));
    for (const std::string &Pass : Passes)
      compareCount(Part + " opt.pass_runs." + Pass,
                   valueOf(Counts.PassRuns, Pass),
                   valueOf(Engine.Campaign, "opt.pass_runs." + Pass));
    compareCount(Part + " exec.runs", Counts.ExecRuns,
                 valueOf(Engine.Campaign, "exec.runs"));
    compareCount(Part + " evalcache.hits", Counts.MemoHits, Engine.EvalHits);
  };
  checkCounts("scan", Re.Scan, Counted.Scan.Engine);
  if (Exact)
    checkCounts("dedup", Re.Dedup, Counted.Dedup.Engine);

  if (!Spans.write(WorkDir + "/trace-" + W.Name + "-" + std::to_string(Seed) +
                   ".tsv"))
    Problems.push_back("could not write the span file");

  // Per-layer metrics.
  const std::map<std::string, double> Self = Spans.selfSeconds();
  const std::map<std::string, double> HookSelf = HookSpans.selfSeconds();
  auto self = [&](const std::string &Name) { return valueOf(Self, Name); };
  double Attributed = 0;
  for (const auto &[Name, S] : Self)
    if (isLayerSpan(Name))
      Attributed += S;

  const EngineCounters &ES = Counted.Scan.Engine;
  const EngineCounters &ED = Counted.Dedup.Engine;
  auto both = [&](const std::string &Name) {
    return static_cast<double>(counter(ES, Name) + counter(ED, Name));
  };
  std::vector<Metric> Metrics;
  Metrics.push_back({"gen.corpus_s", self("gen.corpus"), "s"});
  Metrics.push_back({"fuzz.self_s", self("fuzz"), "s"});
  Metrics.push_back(
      {"fuzz.transformations_applied",
       static_cast<double>(Re.Scan.TransformationsApplied +
                           Re.Dedup.TransformationsApplied),
       "count"});
  Metrics.push_back({"validate.self_s", self("validate"), "s"});
  Metrics.push_back(
      {"validate.calls",
       static_cast<double>(Re.Scan.ValidateCalls + Re.Dedup.ValidateCalls),
       "count"});
  for (int K = 0; K <= static_cast<int>(OptPassKind::Dce); ++K) {
    std::string Pass = optPassName(static_cast<OptPassKind>(K));
    Metrics.push_back({"opt." + Pass + ".self_s", self("opt." + Pass), "s"});
    Metrics.push_back({"opt." + Pass + ".runs",
                       both("opt.pass_runs." + Pass), "count"});
  }
  Metrics.push_back({"target.self_s", self("target.run") + self("target.hash"),
                     "s"});
  Metrics.push_back({"exec.lower.self_s", self("exec.lower"), "s"});
  Metrics.push_back({"exec.execute.self_s", self("exec.execute"), "s"});
  Metrics.push_back({"exec.runs", both("exec.runs"), "count"});
  Metrics.push_back({"exec.steps", both("exec.steps"), "count"});
  Metrics.push_back({"target.compiles", both("target.compiles"), "count"});
  Metrics.push_back({"target.reference_compiles",
                     static_cast<double>(Re.Scan.ReferenceCompiles), "count"});
  double EvalHits = static_cast<double>(ES.EvalHits + ED.EvalHits);
  double EvalAll =
      EvalHits + static_cast<double>(ES.EvalMisses + ED.EvalMisses);
  double ExeHits = static_cast<double>(ES.ExeHits + ED.ExeHits);
  double ExeAll = ExeHits + static_cast<double>(ES.ExeMisses + ED.ExeMisses);
  Metrics.push_back(
      {"target.evalcache.hit_ratio", ratio(EvalHits, EvalAll), "ratio"});
  Metrics.push_back(
      {"target.execache.hit_ratio", ratio(ExeHits, ExeAll), "ratio"});

  std::vector<double> PipelineMs;
  for (double S : Spans.durations("reduce.pipeline"))
    PipelineMs.push_back(S * 1e3);
  Tail Pipe = tailOf(PipelineMs);
  Metrics.push_back({"reduce.pipeline_ms_p50", median(PipelineMs), "ms"});
  Metrics.push_back({"reduce.pipeline_ms_tail", Pipe.Value, "ms"});
  Metrics.push_back({"reduce.pipeline_self_s", self("reduce.pipeline"), "s"});
  Metrics.push_back({"reduce.check.self_s", self("reduce.check"), "s"});
  Metrics.push_back(
      {"reducer.checks", static_cast<double>(counter(ED, "reducer.checks")),
       "count"});
  Metrics.push_back({"replaycache.replays", both("replaycache.replays"),
                     "count"});
  Metrics.push_back({"replaycache.transformations_skipped",
                     both("replaycache.transformations_skipped"), "count"});
  Metrics.push_back(
      {"reduce.speculation_useful_share",
       ratio(static_cast<double>(Counted.Checks),
             static_cast<double>(Counted.Checks + Counted.SpeculativeChecks)),
       "ratio"});
  Metrics.push_back({"dedup.self_s", self("dedup"), "s"});
  Metrics.push_back({"triage.self_s", self("triage"), "s"});
  uint64_t BisectionChecks = 0;
  for (const triage::BugAttribution &A : Counted.Dedup.Attributions)
    BisectionChecks += A.BisectionChecks;
  Metrics.push_back({"triage.bisection_checks",
                     static_cast<double>(BisectionChecks), "count"});
  Metrics.push_back({"store.write_s", valueOf(HookSelf, "store.write"), "s"});
  Metrics.push_back({"store.bytes_written",
                     static_cast<double>(Counted.Dedup.StoreBytes), "bytes"});
  Metrics.push_back(
      {"obs.journal_append_s", valueOf(HookSelf, "obs.journal_append"), "s"});
  Metrics.push_back({"obs.journal_bytes",
                     static_cast<double>(Counted.Dedup.JournalBytes),
                     "bytes"});

  // Stragglers: within each scheduling wave of scanned tests, the slowest
  // test's cost over the mean test cost; the median over waves.
  std::vector<double> Straggler;
  std::vector<std::vector<double>> WaveTests = Re.ScanTestSeconds;
  WaveTests.push_back(Re.DedupTestSeconds);
  for (const std::vector<double> &Tool : WaveTests)
    for (size_t Start = 0; Start < Tool.size();
         Start += CampaignEngine::ShardSize) {
      size_t End = std::min(Tool.size(), Start + CampaignEngine::ShardSize);
      double Max = 0, Sum = 0;
      for (size_t I = Start; I < End; ++I) {
        Max = std::max(Max, Tool[I]);
        Sum += Tool[I];
      }
      Straggler.push_back(ratio(Max, Sum / static_cast<double>(End - Start)));
    }
  double PerOp = 0;
  for (double S : Spans.durations("campaign.test"))
    PerOp += S;
  for (double S : Spans.durations("reduce.pipeline"))
    PerOp += S;
  Metrics.push_back(
      {"campaign.wave_straggler_ratio", median(Straggler), "ratio"});
  Metrics.push_back({"campaign.serial_share",
                     ratio(Re.WallSeconds - PerOp, Re.WallSeconds), "ratio"});
  const double AttributedShare = ratio(Attributed, Re.WallSeconds);
  const double Gap = Re.WallSeconds - Plain.CampaignSeconds;
  Metrics.push_back({"traced.attributed_share", AttributedShare, "ratio"});
  Metrics.push_back({"traced.gap_s", Gap, "s"});

  std::printf("workload %s seed %llu (campaign seed %llu): traced wall "
              "%.3f s, untraced campaign wall %.3f s, %zu spans\n",
              W.Name.c_str(), static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(CampaignSeed), Re.WallSeconds,
              Plain.CampaignSeconds, Spans.size());
  std::printf("traced.attributed_share %.4f of the re-drive wall\n",
              AttributedShare);
  std::printf("traced.gap_s = traced wall minus untraced wall; the re-drive "
              "runs no memo layer, so the gap also holds the cache savings "
              "the engine makes (%.0f evaluation memo hits) and the "
              "benchmark's own validation of every scan variant\n",
              static_cast<double>(Re.Dedup.MemoHits));
  std::printf("reduce.pipeline_ms_tail is p%g of %zu reductions\n",
              Pipe.Percentile, Pipe.Samples);
  for (const std::string &P : Problems)
    std::printf("problem: %s\n", P.c_str());
  uint64_t Attempted = Plain.Tests + Plain.Reproducers;
  if (!Problems.empty() && Failed == 0)
    Failed = Attempted;
  printResult(Problems.empty(), Attempted, Failed, Metrics);
  return 0;
}

//===----------------------------------------------------------------------===//
// Recording expected digests
//===----------------------------------------------------------------------===//

int record(const std::string &Path, const Scale &S,
           const std::string &WorkDir) {
  telemetry::MetricsRegistry::global().setEnabled(false);
  std::map<std::string, std::string> Out;
  readExpected(Path, Out); // keep entries of the other scale
  for (const char *Name : {"scan", "reduce"}) {
    Workload W;
    makeWorkload(Name, S, W);
    for (uint64_t I = 0; I < PoolSize; ++I) {
      uint64_t CampaignSeed = PoolBase + I;
      Repetition R = runOnce(W, CampaignSeed, WorkDir);
      if (W.Scan.TestsPerTool)
        Out[scanKey(W.Scan, CampaignSeed) + "/bugs"] = R.Scan.Digest;
      Out[dedupKey(W.Dedup, CampaignSeed) + "/bugs"] =
          digestBugs(R.Dedup.Log.Bugs);
      Out[dedupKey(W.Dedup, CampaignSeed) + "/reductions"] = R.Dedup.Digest;
      std::fprintf(stderr, "recorded %s campaign seed %llu\n", Name,
                   static_cast<unsigned long long>(CampaignSeed));
    }
  }
  std::ofstream File(Path);
  for (const auto &[Key, Digest] : Out)
    File << Key << ' ' << Digest << '\n';
  return File ? 0 : 1;
}

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload scan|reduce|"
               "parallel --seed N --seconds S --trace 0|1 [--expected FILE] "
               "[--work-dir DIR] [--scale full|tiny]\n       perfbench "
               "--record FILE [--scale full|tiny]\n",
               Why.c_str());
  std::exit(2);
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  Out = std::strtoull(Text.c_str(), nullptr, 10);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag.rfind("--", 0) != 0 || I + 1 >= Argc)
      usage("bad argument '" + Flag + "'");
    Args[Flag.substr(2)] = Argv[++I];
  }
  for (const auto &[Name, Value] : Args) {
    (void)Value;
    if (Name != "workload" && Name != "seed" && Name != "seconds" &&
        Name != "trace" && Name != "expected" && Name != "work-dir" &&
        Name != "scale" && Name != "record")
      usage("unknown flag --" + Name);
  }
  std::string ScaleName = Args.count("scale") ? Args["scale"] : "full";
  if (ScaleName != "full" && ScaleName != "tiny")
    usage("--scale must be full or tiny");
  const Scale &S = ScaleName == "tiny" ? TinyScale : FullScale;
  std::string WorkDir =
      Args.count("work-dir") ? Args["work-dir"] : ".bench_work";
  std::error_code Ec;
  fs::create_directories(WorkDir, Ec);
  if (Ec)
    usage("cannot create work directory " + WorkDir);

  if (Args.count("record"))
    return record(Args["record"], S, WorkDir);

  for (const char *Required : {"workload", "seed", "seconds", "trace"})
    if (!Args.count(Required))
      usage(std::string("missing --") + Required);
  Workload W;
  if (!makeWorkload(Args["workload"], S, W))
    usage("unknown workload '" + Args["workload"] + "'");
  uint64_t Seed = 0, Seconds = 0, Trace = 0;
  if (!parseUnsigned(Args["seed"], Seed))
    usage("--seed must be a non-negative integer");
  if (!parseUnsigned(Args["seconds"], Seconds) || Seconds == 0)
    usage("--seconds must be a positive integer");
  if (!parseUnsigned(Args["trace"], Trace) || Trace > 1)
    usage("--trace must be 0 or 1");
  std::string ExpectedPath = Args.count("expected")
                                 ? Args["expected"]
                                 : "perfbench/expected_digests.txt";
  std::map<std::string, std::string> Expected;
  if (!readExpected(ExpectedPath, Expected))
    usage("cannot read expected digests from " + ExpectedPath);

  try {
    return Trace ? runTraced(W, Seed, Expected, WorkDir)
                 : runUntraced(W, Seed, static_cast<double>(Seconds), Expected,
                               WorkDir);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}

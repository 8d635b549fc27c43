//===- perfbench/src/Workloads.h - Engine-driven campaign parts -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two campaign parts every workload is built from, driven through the
/// CampaignEngine API and its public hooks only:
///
///  * a bug-finding scan (runBugFinding on the standard fleet, no store);
///  * a dedup campaign (runDedup crash-only on the GPU-less targets with a
///    CampaignStore and the decision journal attached, as
///    `minispv campaign --store` does), followed by triage::attributeAll
///    over every reproducer the ReproducerSink captured.
///
/// Each part returns its decision output (the bug table, the reduction
/// records, the dedup classes and the attributions) together with the
/// timings the end-to-end metrics need. Store, journal and observer calls
/// go through forwarding wrappers that can time them into a SpanRecorder.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include "campaign/CampaignEngine.h"
#include "triage/Triage.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Shape of a bug-finding scan.
struct ScanSpec {
  size_t TestsPerTool = 0;
  uint32_t Limit = 250;
};

/// Shape of a dedup campaign.
struct DedupSpec {
  size_t TestsPerTool = 0;
  uint32_t Limit = 150;
  size_t CapPerSignature = 50;
};

/// One (test, target) bug observation committed by the engine.
struct BugRow {
  std::string Phase;
  size_t Test = 0;
  std::string Target;
  std::string Signature;
};

/// One captured reproducer: the engine's record plus the artifacts triage
/// needs.
struct Reproducer {
  spvfuzz::ReductionRecord Record;
  spvfuzz::ShaderInput Input;
  spvfuzz::Module Reduced;
};

/// What the engine's observer hook saw: bug rows and the wall-clock gaps
/// between wave commits (milliseconds) of the scan and reduce phases.
struct ObserverLog {
  std::vector<BugRow> Bugs;
  std::vector<double> WaveGapsMs;
};

/// The engine's own accounting of one part: its registry counters (empty
/// while telemetry is off) and its memo layers' hit counts. Campaign holds
/// the counters before the triage post-pass, whose bisection compiles add
/// to the same opt.pass_runs.* counters.
struct EngineCounters {
  std::map<std::string, uint64_t> Registry;
  std::map<std::string, uint64_t> Campaign;
  uint64_t EvalHits = 0, EvalMisses = 0;
  uint64_t ExeHits = 0, ExeMisses = 0;
};

struct ScanResult {
  double SetupSeconds = 0;
  double Seconds = 0; // runBugFinding wall
  size_t Tests = 0;   // fuzzed variants, each judged on every target
  ObserverLog Log;
  EngineCounters Engine;
  std::string Digest;
};

struct DedupResult {
  double SetupSeconds = 0;
  double Seconds = 0; // runDedup + attributeAll wall
  std::vector<Reproducer> Reproducers;
  spvfuzz::DedupData Dedup;
  std::vector<spvfuzz::triage::BugAttribution> Attributions;
  ObserverLog Log;
  EngineCounters Engine;
  uint64_t StoreBytes = 0;
  uint64_t JournalBytes = 0;
  std::string Digest;
};

/// The engine policy of a part: every knob at its default except these.
spvfuzz::ExecutionPolicy campaignPolicy(uint64_t Seed, uint32_t Limit,
                                        size_t Jobs);
spvfuzz::ReductionConfig dedupConfig(const DedupSpec &Spec,
                                     const spvfuzz::TargetFleet &Fleet);

/// Runs the scan part on a corpus drawn from \p Seed.
ScanResult runScan(uint64_t Seed, const ScanSpec &Spec, size_t Jobs);

/// Runs the dedup part in a fresh store under \p WorkDir (removed after).
/// With \p Spans set, store writes and journal appends are recorded as
/// "store.write" and "obs.journal_append" spans.
DedupResult runDedupCampaign(uint64_t Seed, const DedupSpec &Spec,
                             size_t Jobs, const std::string &WorkDir,
                             SpanRecorder *Spans = nullptr);

/// Digest helpers: FNV-1a 64 over a canonical rendering of each decision
/// output, as 16 hex digits.
std::string digestBugs(const std::vector<BugRow> &Bugs);
std::string digestDedup(const std::vector<Reproducer> &Reproducers,
                        const spvfuzz::DedupData &Dedup,
                        const std::vector<spvfuzz::triage::BugAttribution> &A);

/// Median instruction delta (reduced minus original) over the records.
double medianDelta(const std::vector<Reproducer> &Reproducers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

//===- perfbench/src/Redrive.h - Traced re-drive of a workload --*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's second half: the workload's inputs are re-driven
/// through the libraries' public layer calls — makeCorpus, regenerateTest
/// (fuzz), validateModule, runOptPass over each TargetSpec::Pipeline,
/// Executable::compile / run (mirroring evaluateTestOn's variant and
/// reference runs), ReductionPipeline::run with a wrapping
/// InterestingnessTest, deduplicateTests and triage::attributeAll — with a
/// span around every call. The engine is not involved, so no memo layer
/// engages: every count here is the cache-blind work of the campaign.
///
/// Fidelity: the re-drive's verdicts must equal the engine run's (the
/// per-(test, target) signatures, each reduction's Checks and minimized
/// length, the attribution culprits), and its cache-blind counters must
/// equal the engine's registry counters once the engine's evaluation
/// memo is accounted for. Every disagreement is reported as a mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REDRIVE_H
#define PERFBENCH_REDRIVE_H

#include "Spans.h"
#include "Workloads.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Work counted by the re-drive. Target runs the engine's evaluation memo
/// (EvalCache) would have answered are left out of PassRuns and ExecRuns,
/// so those compare directly with the engine's registry counters.
struct RedriveCounts {
  std::map<std::string, uint64_t> PassRuns; // by pass name
  uint64_t ExecRuns = 0;
  uint64_t ReferenceCompiles = 0;
  uint64_t ValidateCalls = 0;
  uint64_t TransformationsApplied = 0;
  uint64_t MemoHits = 0;
};

struct RedriveOutcome {
  /// Work of the scan part and of the dedup part, counted separately so
  /// each compares with its own engine part.
  RedriveCounts Scan;
  RedriveCounts Dedup;
  double WallSeconds = 0;
  /// Per-test seconds of the scan part (in test order per tool) and of
  /// the dedup part's scan (in test order).
  std::vector<std::vector<double>> ScanTestSeconds;
  std::vector<double> DedupTestSeconds;
  /// Fidelity failures; empty when the re-drive matched the engine.
  std::vector<std::string> Mismatches;
};

/// Re-drives the scan part \p Scan (skipped when TestsPerTool is 0) and
/// the dedup part \p Dedup (likewise) for campaign seed \p Seed, comparing
/// verdicts against the engine results \p ScanRef and \p DedupRef.
RedriveOutcome redrive(uint64_t Seed, const ScanSpec &Scan,
                      const DedupSpec &Dedup, const ScanResult &ScanRef,
                      const DedupResult &DedupRef, SpanRecorder &Spans);

/// Span names that count as named layers for traced.attributed_share.
bool isLayerSpan(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_REDRIVE_H

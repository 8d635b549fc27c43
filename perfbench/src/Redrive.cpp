//===- perfbench/src/Redrive.cpp - Traced re-drive of a workload ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Redrive.h"

#include "analysis/Validator.h"
#include "core/Dedup.h"
#include "core/ReductionPipeline.h"
#include "exec/Executable.h"
#include "support/ModuleHash.h"

#include <set>
#include <stdexcept>
#include <tuple>

using namespace spvfuzz;

namespace perfbench {

namespace {

/// Runs one module through one target by the same public steps
/// Target::runBatch takes — the pipeline's passes one by one, the
/// lowering, the execution — with a span around each. With the memo on,
/// it mirrors the engine's EvalCache: a (target, module, input) seen
/// before would have been answered from it, so it is run (the re-drive is
/// cache-blind) but not counted in PassRuns and ExecRuns.
class TracedFleet {
public:
  TracedFleet(const TargetFleet &Fleet, uint64_t StepBudget,
              SpanRecorder &Spans)
      : StepBudget(StepBudget), Spans(Spans) {
    for (const Target &T : Fleet)
      if (!T.spec().deterministic())
        throw std::runtime_error("re-drive needs a deterministic fleet; " +
                                 T.name() + " is not");
    for (int K = 0; K <= static_cast<int>(OptPassKind::Dce); ++K) {
      const char *Name = optPassName(static_cast<OptPassKind>(K));
      PassSpan.push_back(std::string("opt.") + Name);
      PassName.push_back(Name);
    }
  }

  /// Starts a part: counts go to \p Into; \p WithMemo mirrors an attached
  /// EvalCache.
  void beginPart(RedriveCounts &Into, bool WithMemo) {
    Counts = &Into;
    MemoOn = WithMemo;
    Memo.clear();
  }

  TargetRun run(const Target &T, const Module &M, const ShaderInput &Input) {
    RedriveCounts &Counts = *this->Counts;
    SpanRecorder::Scope Span(&Spans, "target.run");
    // Target::runBatch hashes every module it compiles; the engine's
    // EvalCache keys on that hash and the input's.
    bool Counted = true;
    {
      SpanRecorder::Scope Hash(&Spans, "target.hash");
      uint64_t MHash = hashModule(M);
      if (MemoOn)
        Counted = Memo.insert({&T, MHash, hashShaderInput(Input)}).second;
    }
    if (!Counted)
      ++Counts.MemoHits;

    TargetRun Run;
    const TargetSpec &Spec = T.spec();
    // Mirrors compileStepCost in target/Target.cpp.
    const uint64_t CompileCost =
        static_cast<uint64_t>(M.instructionCount()) * Spec.Pipeline.size();
    Module Optimized = M;
    PassCrash Crash;
    for (OptPassKind Pass : Spec.Pipeline) {
      size_t K = static_cast<size_t>(Pass);
      if (Counted)
        ++Counts.PassRuns[PassName[K]];
      SpanRecorder::Scope PassScope(&Spans, PassSpan[K]);
      if ((Crash = runOptPass(Pass, Optimized, Spec.Bugs)))
        break;
    }
    if (Crash) {
      if (isHangFlavor(Spec.Bugs.flavorOfSignature(*Crash))) {
        Run.RunOutcome = Outcome::Timeout;
        Run.Signature = TimeoutSignature;
      } else {
        Run.RunOutcome = Outcome::Crash;
        Run.Signature = *Crash;
      }
      return Run;
    }
    std::shared_ptr<const Executable> Exe;
    if (Spec.CanExecute) {
      SpanRecorder::Scope Lower(&Spans, "exec.lower");
      Exe = Executable::compile(std::move(Optimized), ExecEngine::Lowered);
    }
    if (StepBudget != 0 && CompileCost > StepBudget) {
      Run.RunOutcome = Outcome::Timeout;
      Run.Signature = TimeoutSignature;
      return Run;
    }
    if (!Spec.CanExecute)
      return Run;
    InterpreterOptions Opts;
    const bool Tighter = StepBudget != 0 && StepBudget < Opts.StepLimit;
    if (Tighter)
      Opts.StepLimit = StepBudget;
    {
      SpanRecorder::Scope Execute(&Spans, "exec.execute");
      Run.Result = Exe->run(Input, Opts);
    }
    if (Counted)
      ++Counts.ExecRuns;
    if (Tighter && Run.Result.ExecStatus == ExecResult::Status::Fault &&
        Run.Result.FaultMessage == "step limit exceeded") {
      Run.RunOutcome = Outcome::Timeout;
      Run.Signature = TimeoutSignature;
      Run.Result = ExecResult();
    }
    return Run;
  }

private:
  uint64_t StepBudget;
  RedriveCounts *Counts = nullptr;
  SpanRecorder &Spans;
  std::vector<std::string> PassSpan;
  std::vector<std::string> PassName;
  bool MemoOn = false;
  std::set<std::tuple<const Target *, uint64_t, uint64_t>> Memo;
};

FuzzResult tracedFuzz(const Corpus &C, const ToolConfig &Tool, uint64_t Seed,
                      size_t TestIndex, size_t &ReferenceIndex,
                      RedriveCounts &Counts, SpanRecorder &Spans) {
  FuzzResult Fuzzed;
  {
    SpanRecorder::Scope Span(&Spans, "fuzz");
    Fuzzed = regenerateTest(C, Tool, Seed, TestIndex, ReferenceIndex);
  }
  Counts.TransformationsApplied += Fuzzed.Sequence.size();
  return Fuzzed;
}

void tracedValidate(const Module &M, RedriveCounts &Counts,
                    SpanRecorder &Spans, std::vector<std::string> &Mismatches,
                    const std::string &What) {
  SpanRecorder::Scope Span(&Spans, "validate");
  ++Counts.ValidateCalls;
  std::vector<std::string> Errors = validateModule(M);
  if (!Errors.empty())
    Mismatches.push_back(What + " does not validate: " + Errors.front());
}

std::string rowText(size_t Test, const std::string &Target,
                    const std::string &Signature) {
  return std::to_string(Test) + "/" + Target + "/" + Signature;
}

void compareRows(const std::vector<std::string> &Got,
                 const std::vector<BugRow> &Want, const std::string &Part,
                 std::vector<std::string> &Mismatches) {
  if (Got.size() != Want.size())
    Mismatches.push_back(Part + ": re-drive found " +
                         std::to_string(Got.size()) + " bug rows, engine " +
                         std::to_string(Want.size()));
  for (size_t I = 0; I < std::min(Got.size(), Want.size()); ++I)
    if (Got[I] != rowText(Want[I].Test, Want[I].Target, Want[I].Signature)) {
      Mismatches.push_back(Part + ": bug row " + std::to_string(I) +
                           " differs: " + Got[I]);
      return;
    }
}

/// Mirrors runBugFinding / evaluateTestOn (single input, all targets).
void redriveScan(uint64_t Seed, const ScanSpec &Spec, const Corpus &C,
                 const TargetFleet &Fleet, TracedFleet &Runner,
                 const ScanResult &Ref, RedriveOutcome &Out,
                 SpanRecorder &Spans) {
  std::vector<ToolConfig> Tools =
      standardTools(ToolsetSpec{}.withTransformationLimit(Spec.Limit));
  std::vector<std::string> Rows;
  for (const ToolConfig &Tool : Tools) {
    Out.ScanTestSeconds.emplace_back();
    for (size_t Index = 0; Index < Spec.TestsPerTool; ++Index) {
      Clock::time_point Start = Clock::now();
      SpanRecorder::Scope TestSpan(&Spans, "campaign.test");
      size_t RefIndex = 0;
      FuzzResult Fuzzed =
          tracedFuzz(C, Tool, Seed, Index, RefIndex, Out.Scan, Spans);
      tracedValidate(Fuzzed.Variant, Out.Scan, Spans, Out.Mismatches,
                     Tool.Name + " test " + std::to_string(Index));
      const GeneratedProgram &Reference = C.References[RefIndex];
      std::map<std::string, std::string> Signatures;
      for (const Target &T : Fleet) {
        TargetRun Variant = Runner.run(T, Fuzzed.Variant, Reference.Input);
        if (Variant.interesting()) {
          Signatures[T.name()] = Variant.Signature;
          continue;
        }
        if (!T.canExecute())
          continue;
        ++Out.Scan.ReferenceCompiles;
        TargetRun Original = Runner.run(T, Reference.M, Reference.Input);
        if (Original.executed() && Variant.Result != Original.Result)
          Signatures[T.name()] = MiscompilationSignature;
      }
      for (const auto &[Target, Signature] : Signatures)
        Rows.push_back(rowText(Index, Target, Signature));
      Out.ScanTestSeconds.back().push_back(secondsSince(Start));
    }
  }
  compareRows(Rows, Ref.Log.Bugs, "scan", Out.Mismatches);
}

/// Mirrors runDedup: runReductions' scan, cap and reduction schedule for
/// the spirv-fuzz tool (crash-only), then the per-target dedup, then
/// triage over every reproducer.
void redriveDedup(uint64_t Seed, const DedupSpec &Spec, const Corpus &C,
                  const TargetFleet &Fleet, TracedFleet &Runner,
                  const DedupResult &Ref, RedriveOutcome &Out,
                  SpanRecorder &Spans) {
  const ExecutionPolicy Defaults; // the engine's reduction knobs
  ReductionConfig Config = dedupConfig(Spec, Fleet);
  std::vector<ToolConfig> Tools =
      standardTools(ToolsetSpec{}.withTransformationLimit(Spec.Limit));
  const ToolConfig *Tool = nullptr;
  for (const ToolConfig &T : Tools)
    if (T.Name == "spirv-fuzz")
      Tool = &T;
  if (!Tool)
    throw std::runtime_error("spirv-fuzz tool missing");
  std::vector<const Target *> Wanted;
  for (const Target &T : Fleet)
    if (std::find(Config.TargetNames.begin(), Config.TargetNames.end(),
                  T.name()) != Config.TargetNames.end())
      Wanted.push_back(&T);

  ReductionPlan Plan;
  Plan.SnapshotInterval = Defaults.ReplaySnapshotInterval;
  Plan.Order = Defaults.ReduceOrder;
  Plan.ShrinkFunctions = true;
  const ReductionPipeline Pipeline(Plan);

  struct Reduced {
    ReductionRecord Record;
    Module Variant;
    ShaderInput Input;
  };
  std::vector<Reduced> Done;
  std::vector<std::string> Rows;
  std::map<std::pair<std::string, std::string>, size_t> SignatureCounts;
  size_t ReductionsDone = 0;
  for (size_t WaveStart = 0; WaveStart < Config.TestsPerTool &&
                             ReductionsDone < Config.MaxReductionsPerTool;
       WaveStart += CampaignEngine::ShardSize) {
    size_t WaveEnd =
        std::min(Config.TestsPerTool, WaveStart + CampaignEngine::ShardSize);
    struct Scanned {
      size_t Index = 0;
      size_t RefIndex = 0;
      FuzzResult Fuzzed;
      std::vector<std::pair<const Target *, std::string>> Found;
    };
    std::vector<Scanned> Wave;
    for (size_t Index = WaveStart; Index < WaveEnd; ++Index) {
      SpanRecorder::Scope TestSpan(&Spans, "campaign.test");
      Scanned S;
      S.Index = Index;
      Clock::time_point Start = Clock::now();
      S.Fuzzed =
          tracedFuzz(C, *Tool, Seed, Index, S.RefIndex, Out.Dedup, Spans);
      tracedValidate(S.Fuzzed.Variant, Out.Dedup, Spans, Out.Mismatches,
                     Tool->Name + " test " + std::to_string(Index));
      const GeneratedProgram &Reference = C.References[S.RefIndex];
      for (const Target *T : Wanted) {
        TargetRun Run = Runner.run(*T, S.Fuzzed.Variant, Reference.Input);
        if (Run.interesting()) {
          S.Found.emplace_back(T, Run.Signature);
          Rows.push_back(rowText(Index, T->name(), Run.Signature));
        }
      }
      Wave.push_back(std::move(S));
      Out.DedupTestSeconds.push_back(secondsSince(Start));
    }
    for (const Scanned &S : Wave) {
      for (const auto &[T, Signature] : S.Found) {
        if (ReductionsDone >= Config.MaxReductionsPerTool)
          break;
        size_t &Count = SignatureCounts[{T->name(), Signature}];
        if (Count >= Config.CapPerSignature)
          continue;
        ++Count;
        ++ReductionsDone;
        const GeneratedProgram &Reference = C.References[S.RefIndex];
        const std::string Sig = Signature;
        const Target *Tgt = T;
        InterestingnessTest Test = [&, Tgt, Sig](const Module &Variant,
                                                 const FactManager &) {
          SpanRecorder::Scope Check(&Spans, "reduce.check");
          TargetRun Run = Runner.run(*Tgt, Variant, Reference.Input);
          return Run.interesting() && Run.Signature == Sig;
        };
        ReduceResult Result;
        {
          SpanRecorder::Scope Span(&Spans, "reduce.pipeline");
          Result = Pipeline.run(Reference.M, Reference.Input,
                                S.Fuzzed.Sequence, Test);
        }
        Reduced R;
        R.Record.TargetName = T->name();
        R.Record.Signature = Signature;
        R.Record.TestIndex = S.Index;
        R.Record.ReducedCount = Result.ReducedVariant.instructionCount();
        R.Record.MinimizedLength = Result.Minimized.size();
        R.Record.Checks = Result.Checks;
        R.Record.Types = dedupTypesOf(Result.Minimized);
        R.Variant = std::move(Result.ReducedVariant);
        R.Input = Reference.Input;
        Done.push_back(std::move(R));
      }
    }
  }
  compareRows(Rows, Ref.Log.Bugs, "dedup scan", Out.Mismatches);
  if (Done.size() != Ref.Reproducers.size())
    Out.Mismatches.push_back("re-drive made " + std::to_string(Done.size()) +
                             " reproducers, engine " +
                             std::to_string(Ref.Reproducers.size()));
  for (size_t I = 0; I < std::min(Done.size(), Ref.Reproducers.size()); ++I) {
    const ReductionRecord &Got = Done[I].Record;
    const ReductionRecord &Want = Ref.Reproducers[I].Record;
    if (Got.TestIndex != Want.TestIndex || Got.TargetName != Want.TargetName ||
        Got.Signature != Want.Signature || Got.Checks != Want.Checks ||
        Got.MinimizedLength != Want.MinimizedLength ||
        Got.ReducedCount != Want.ReducedCount) {
      Out.Mismatches.push_back(
          "reduction " + std::to_string(I) + " differs: checks " +
          std::to_string(Got.Checks) + " vs " + std::to_string(Want.Checks) +
          ", length " + std::to_string(Got.MinimizedLength) + " vs " +
          std::to_string(Want.MinimizedLength));
      break;
    }
  }

  {
    SpanRecorder::Scope Span(&Spans, "dedup");
    size_t Row = 0;
    for (const std::string &TargetName : Config.TargetNames) {
      std::vector<std::set<TransformationKind>> Types;
      std::set<std::string> Sigs;
      for (const Reduced &R : Done)
        if (R.Record.TargetName == TargetName) {
          Types.push_back(R.Record.Types);
          Sigs.insert(R.Record.Signature);
        }
      if (Types.empty())
        continue;
      std::vector<size_t> Chosen = deduplicateTests(Types);
      if (Row >= Ref.Dedup.PerTarget.size() ||
          Ref.Dedup.PerTarget[Row].Reports != Chosen.size() ||
          Ref.Dedup.PerTarget[Row].Sigs != Sigs.size())
        Out.Mismatches.push_back("dedup classes differ on " + TargetName);
      ++Row;
    }
  }

  std::vector<triage::TriageItem> Items;
  for (const Reduced &R : Done)
    Items.push_back({R.Record.TargetName, R.Record.Signature, R.Variant,
                     R.Input});
  std::vector<triage::BugAttribution> Attrs;
  {
    SpanRecorder::Scope Span(&Spans, "triage");
    Attrs = triage::attributeAll(Fleet, Items);
  }
  if (Attrs.size() != Ref.Attributions.size())
    Out.Mismatches.push_back("attribution count differs");
  for (size_t I = 0; I < std::min(Attrs.size(), Ref.Attributions.size()); ++I)
    if (Attrs[I].Verdict != Ref.Attributions[I].Verdict ||
        Attrs[I].culpritLabel() != Ref.Attributions[I].culpritLabel()) {
      Out.Mismatches.push_back("attribution " + std::to_string(I) +
                               " culprit differs: " + Attrs[I].culpritLabel() +
                               " vs " + Ref.Attributions[I].culpritLabel());
      break;
    }
}

} // namespace

bool isLayerSpan(const std::string &Name) {
  // target.run's own time is the target layer's glue around the passes
  // (copying the source module, releasing the artifact). The re-drive's
  // loops and verdict bookkeeping stay unattributed.
  return Name != "redrive" && Name != "campaign.test";
}

RedriveOutcome redrive(uint64_t Seed, const ScanSpec &Scan,
                      const DedupSpec &Dedup, const ScanResult &ScanRef,
                      const DedupResult &DedupRef, SpanRecorder &Spans) {
  RedriveOutcome Out;
  Clock::time_point Start = Clock::now();
  SpanRecorder::Scope Root(&Spans, "redrive");
  const TargetFleet Fleet = TargetFleet::standard();
  TracedFleet Runner(Fleet, ExecutionPolicy().TargetDeadlineSteps, Spans);
  if (Scan.TestsPerTool) {
    Corpus C;
    {
      SpanRecorder::Scope Span(&Spans, "gen.corpus");
      C = makeCorpus(CorpusSpec{}.withSeed(Seed));
    }
    // The scan runs through the engine's uncached views.
    Runner.beginPart(Out.Scan, /*WithMemo=*/false);
    redriveScan(Seed, Scan, C, Fleet, Runner, ScanRef, Out, Spans);
  }
  if (Dedup.TestsPerTool) {
    Corpus C;
    {
      SpanRecorder::Scope Span(&Spans, "gen.corpus");
      C = makeCorpus(CorpusSpec{}.withSeed(Seed));
    }
    // The dedup campaign's runs go through the engine's memoized views.
    Runner.beginPart(Out.Dedup, /*WithMemo=*/true);
    redriveDedup(Seed, Dedup, C, Fleet, Runner, DedupRef, Out, Spans);
  }
  Out.WallSeconds = secondsSince(Start);
  return Out;
}

} // namespace perfbench

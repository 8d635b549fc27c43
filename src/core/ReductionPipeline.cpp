//===- core/ReductionPipeline.cpp - Staged reduction pipeline --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"

#include "analysis/Validator.h"
#include "core/FunctionShrinker.h"
#include "core/ReplayCache.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// Candidate ordering
//===----------------------------------------------------------------------===//

const char *spvfuzz::candidateOrderName(CandidateOrder Order) {
  switch (Order) {
  case CandidateOrder::Paper:
    return "paper";
  case CandidateOrder::Learned:
    return "learned";
  }
  return "paper";
}

bool spvfuzz::candidateOrderFromName(const std::string &Name,
                                     CandidateOrder &Out) {
  if (Name == "paper") {
    Out = CandidateOrder::Paper;
    return true;
  }
  if (Name == "learned") {
    Out = CandidateOrder::Learned;
    return true;
  }
  return false;
}

void ProbabilisticModel::recordOutcome(const TransformationSequence &Current,
                                       size_t Start, size_t End,
                                       bool Removed) {
  for (size_t I = Start; I < End && I < Current.size(); ++I) {
    KindStats &S = Stats[static_cast<size_t>(Current[I]->kind())];
    ++S.Attempts;
    if (Removed)
      ++S.Removed;
  }
  ++Updates;
}

double ProbabilisticModel::chunkScore(const TransformationSequence &Current,
                                      size_t Start, size_t End) const {
  // Mean Laplace-smoothed removal rate of the chunk's kinds. The (+1, +2)
  // smoothing makes every untrained kind score exactly 0.5, so a fresh
  // model ties every chunk and the stable sort preserves the paper order.
  double Sum = 0;
  size_t Count = 0;
  for (size_t I = Start; I < End && I < Current.size(); ++I) {
    const KindStats &S = Stats[static_cast<size_t>(Current[I]->kind())];
    Sum += static_cast<double>(S.Removed + 1) /
           static_cast<double>(S.Attempts + 2);
    ++Count;
  }
  return Count ? Sum / static_cast<double>(Count) : 0.5;
}

uint64_t ProbabilisticModel::tieBreak(size_t Start, size_t End) const {
  if (Seed == 0)
    return 0;
  // splitmix64-style mix of (Seed, Start, End); any fixed bijection works,
  // it only has to be deterministic.
  uint64_t X = Seed ^ (0x9e3779b97f4a7c15ull * (Start + 1)) ^
               (0xbf58476d1ce4e5b9ull * (End + 1));
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

//===----------------------------------------------------------------------===//
// Sequence-reduction stage
//===----------------------------------------------------------------------===//

namespace {

/// One chunk-removal candidate within a scan: the current sequence with
/// [Start, End) deleted. The candidate shares the prefix [0, Start) with
/// the current sequence, which is what lets the ReplayCache resume from a
/// snapshot instead of replaying from scratch.
struct ChunkCandidate {
  size_t Start = 0;
  size_t End = 0;
  TransformationSequence Seq;
  bool Interesting = false;
  /// Structural hash of the replayed variant — the decision-memo key.
  uint64_t Hash = 0;
};

/// A (Start, End) chunk range plus its (learned-order) sort keys.
struct ChunkRange {
  size_t Start = 0;
  size_t End = 0;
  double Score = 0;
  uint64_t Tie = 0;
};

void buildCandidate(const TransformationSequence &Current, size_t Start,
                    size_t End, TransformationSequence &Out) {
  Out.clear();
  Out.reserve(Current.size() - (End - Start));
  Out.insert(Out.end(), Current.begin(), Current.begin() + Start);
  Out.insert(Out.end(), Current.begin() + End, Current.end());
}

} // namespace

ReduceResult ReductionPipeline::reduceSequenceStage(
    const Module &Original, const ShaderInput &Input,
    const TransformationSequence &Sequence,
    const InterestingnessTest &Test) const {
  ReduceResult Result;
  TransformationSequence Current = Sequence;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  telemetry::TraceSpan Span("reduce.sequence");
  Span.note({"initial_length", Sequence.size()});
  if (Metrics.enabled())
    Metrics.add("reducer.reductions");

  const bool Learned = Plan.Order == CandidateOrder::Learned;
  ProbabilisticModel Model(Plan.ModelSeed);

  ReplayCache Cache(Original, Input, Plan.SnapshotInterval,
                    Plan.SnapshotBudgetBytes);

  // Learned mode's decision memo: replayed-variant hash -> verdict. The
  // interestingness test is a pure function of the variant (the EvalCache
  // contract), so a candidate whose module was already decided needs no
  // new oracle consultation — that decision is free. Entries are inserted
  // only at the serial consumption points, in decision order, so the memo
  // (like the model) is identical at any job count; it is insert-only,
  // which lets workers read it lock-free while no batch is being consumed.
  // Seeded with the current sequence's own module: removing transformations
  // that replay as no-ops yields a byte-identical variant, which must be
  // interesting for the same reason the current sequence is.
  std::unordered_map<uint64_t, bool> Memo;
  if (Learned) {
    Module Init;
    FactManager InitFacts;
    Cache.replay(Sequence, 0, Init, InitFacts);
    Memo.emplace(hashModule(Init), true);
  }

  // Candidates per speculative batch. 1 (no pool) degenerates to the plain
  // serial algorithm; with a pool, one batch of W candidates is evaluated
  // concurrently and then consumed in scan order, so the accept/reject
  // decision sequence — and therefore Checks and the minimized result — is
  // identical to the serial run.
  const size_t BatchWidth =
      Plan.Pool ? std::max<size_t>(Plan.Pool->workerCount(), 1) : 1;

  // Evaluates one candidate: incremental replay from the deepest snapshot
  // at or below the candidate's shared prefix, then the interestingness
  // test. Safe to run concurrently with other evaluations (Cache.replay is
  // read-only; the test must be thread-safe per the header contract).
  auto Evaluate = [&Cache, &Test, &Memo, Learned](ChunkCandidate &C) {
    Module Variant;
    FactManager Facts;
    Cache.replay(C.Seq, C.Start, Variant, Facts);
    if (Learned) {
      // A memo hit here skips the expensive test; the memo is frozen
      // while workers run (inserts happen only between batches), and hits
      // are purely a wall-time saving — check accounting is decided
      // against the live memo at the serial consumption point below.
      C.Hash = hashModule(Variant);
      auto It = Memo.find(C.Hash);
      if (It != Memo.end()) {
        C.Interesting = It->second;
        return;
      }
    }
    C.Interesting = Test(Variant, Facts);
  };

  size_t ChunkSize = Current.size() / 2;
  if (ChunkSize == 0)
    ChunkSize = 1;

  std::vector<ChunkCandidate> Batch(BatchWidth);
  std::vector<ChunkRange> Ranges;

  while (true) {
    telemetry::Tracer::global().event(
        "reduce.chunk", {{"chunk_size", ChunkSize},
                         {"sequence_length", Current.size()},
                         {"checks", Result.Checks}});
    bool RemovedAny = false;

    // Enumerate the scan's chunk ranges in paper order — backwards from
    // the last transformation, the leading chunk possibly smaller than
    // ChunkSize — then optionally stable-sort them by expected payoff.
    // Equal scores keep the paper order, so the first scan (untrained
    // model) and the whole Paper mode reproduce the fixed scan exactly.
    Ranges.clear();
    for (size_t End = Current.size(); End > 0;) {
      ChunkRange R;
      R.End = End;
      R.Start = End >= ChunkSize ? End - ChunkSize : 0;
      Ranges.push_back(R);
      End = R.Start;
    }
    if (Learned) {
      for (ChunkRange &R : Ranges) {
        R.Score = Model.chunkScore(Current, R.Start, R.End);
        R.Tie = Model.tieBreak(R.Start, R.End);
      }
      std::vector<ChunkRange> Sorted = Ranges;
      std::stable_sort(Sorted.begin(), Sorted.end(),
                       [](const ChunkRange &A, const ChunkRange &B) {
                         if (A.Score != B.Score)
                           return A.Score > B.Score;
                         return A.Tie < B.Tie;
                       });
      bool Reordered = false;
      for (size_t I = 0; I != Ranges.size(); ++I)
        if (Sorted[I].Start != Ranges[I].Start ||
            Sorted[I].End != Ranges[I].End)
          Reordered = true;
      if (Reordered && Metrics.enabled())
        Metrics.add("reducer.model.reorders");
      Ranges = std::move(Sorted);
    }

    size_t NextRange = 0;
    while (NextRange < Ranges.size()) {
      // Assemble up to BatchWidth candidates in scan order.
      size_t BatchSize = 0;
      size_t DeepestPrefix = 0;
      while (BatchSize < BatchWidth &&
             NextRange + BatchSize < Ranges.size()) {
        const ChunkRange &R = Ranges[NextRange + BatchSize];
        ChunkCandidate &C = Batch[BatchSize++];
        C.Start = R.Start;
        C.End = R.End;
        buildCandidate(Current, C.Start, C.End, C.Seq);
        C.Interesting = false;
        DeepestPrefix = std::max(DeepestPrefix, C.Start);
      }
      // Snapshots need only reach the deepest shared prefix of this batch.
      Cache.prepare(Current, DeepestPrefix);

      if (BatchSize > 1) {
        // Barrier: every job must finish before Current or the cache is
        // mutated below — the jobs read both through references. Each job
        // leaves its verdict in its candidate.
        std::vector<std::function<bool()>> Jobs;
        Jobs.reserve(BatchSize);
        for (size_t I = 0; I != BatchSize; ++I)
          Jobs.push_back([&Evaluate, &C = Batch[I]] {
            Evaluate(C);
            return C.Interesting;
          });
        JobBatch<bool>(Plan.Pool, std::move(Jobs)).collect();
      } else {
        Evaluate(Batch[0]);
      }

      // Consume in scan order. Checks counts only consumed candidates, so
      // it matches the serial algorithm exactly; evaluated-but-discarded
      // candidates are accounted separately as speculative waste. Model
      // updates happen here — at the serial decision points, in decision
      // order — which is what keeps the learned order job-count-invariant.
      size_t Consumed = 0;
      bool Accepted = false;
      size_t AcceptedStart = 0;
      size_t AcceptedEnd = 0;
      for (; Consumed != BatchSize; ++Consumed) {
        ChunkCandidate &C = Batch[Consumed];
        // In learned mode a live-memo hit reuses the earlier verdict for
        // the byte-identical module and the decision consumes no check;
        // only misses consult the oracle. A worker-side skip above is
        // always a hit here (the memo is insert-only), so an uncounted
        // decision at jobs=1 never ran the test either.
        bool Counted = true;
        if (Learned) {
          auto It = Memo.find(C.Hash);
          if (It != Memo.end()) {
            C.Interesting = It->second;
            Counted = false;
            if (Metrics.enabled())
              Metrics.add("reducer.model.memo_hits");
          } else {
            Memo.emplace(C.Hash, C.Interesting);
          }
        }
        if (Counted) {
          ++Result.Checks;
          if (Metrics.enabled())
            Metrics.add("reducer.checks");
        }
        if (Learned) {
          Model.recordOutcome(Current, C.Start, C.End, C.Interesting);
          if (Metrics.enabled())
            Metrics.add("reducer.model.updates");
        }
        if (C.Interesting) {
          AcceptedStart = C.Start;
          AcceptedEnd = C.End;
          Current = std::move(C.Seq);
          Cache.invalidateBeyond(C.Start);
          RemovedAny = true;
          Accepted = true;
          ++Consumed;
          break;
        }
      }
      NextRange += Consumed;
      if (Accepted) {
        if (Consumed != BatchSize) {
          // The rest of the batch was speculated against the
          // pre-acceptance sequence; their results no longer answer the
          // question the serial scan would ask next. Discard and continue
          // from the acceptance point.
          size_t Wasted = BatchSize - Consumed;
          Result.SpeculativeChecks += Wasted;
          if (Metrics.enabled())
            Metrics.add("reducer.speculative_checks", Wasted);
        }
        // Remap the pending ranges onto the shortened sequence. The
        // enumeration partitions the scan, and remapping preserves
        // disjointness, so a pending range is either entirely inside the
        // untouched prefix (kept as-is) or entirely past the removed
        // chunk (shifted down by its width) — it never straddles the
        // removal. In paper order the scan is strictly decreasing, so
        // everything pending is prefix-side and this is exactly the fixed
        // scan's continuation; in learned order the remap keeps the
        // sorted-ahead candidates alive instead of forfeiting them to the
        // next pass's re-enumeration.
        const size_t Width = AcceptedEnd - AcceptedStart;
        size_t Keep = NextRange;
        for (size_t I = NextRange; I != Ranges.size(); ++I) {
          ChunkRange R = Ranges[I];
          if (R.End <= AcceptedStart) {
            Ranges[Keep++] = R;
          } else if (R.Start >= AcceptedEnd) {
            R.Start -= Width;
            R.End -= Width;
            Ranges[Keep++] = R;
          }
        }
        Ranges.resize(Keep);
      }
    }
    if (RemovedAny)
      continue; // retry at the same chunk size until a scan removes nothing
    if (ChunkSize == 1)
      break; // 1-minimal
    ChunkSize /= 2;
  }

  // The cache only ever holds snapshots of still-valid prefixes of Current,
  // so the final replay is incremental too.
  Result.ReducedVariant = Module();
  Cache.replay(Current, Current.size(), Result.ReducedVariant,
               Result.ReducedFacts);
  Result.Minimized = std::move(Current);
  if (Metrics.enabled()) {
    Metrics.observe("reducer.checks_per_reduction",
                    static_cast<double>(Result.Checks));
    Metrics.observe("reducer.minimized_length",
                    static_cast<double>(Result.Minimized.size()));
  }
  Span.note({"checks", Result.Checks});
  Span.note({"minimized_length", Result.Minimized.size()});
  return Result;
}

//===----------------------------------------------------------------------===//
// Post-reduction passes
//===----------------------------------------------------------------------===//

namespace {

/// Result ids used anywhere in \p M (operands and result types of globals,
/// function defs, parameters and body instructions, plus the entry point).
std::set<Id> usedIdsOf(const Module &M) {
  std::set<Id> Used;
  auto Mark = [&Used](Id TheId) { Used.insert(TheId); };
  for (const Instruction &Inst : M.GlobalInsts)
    Inst.forEachUsedId(Mark);
  for (const Function &F : M.Functions) {
    F.Def.forEachUsedId(Mark);
    for (const Instruction &Param : F.Params)
      Param.forEachUsedId(Mark);
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &Inst : B.Body)
        Inst.forEachUsedId(Mark);
  }
  Used.insert(M.EntryPointId);
  return Used;
}

/// Removes dead side-effect-free body instructions: has a result, the
/// opcode is a dead-code-elimination candidate, and the result is used
/// nowhere in the module. Chains (a dead instruction keeping another
/// alive) resolve over the pipeline's fixpoint rounds.
class StripUnusedDefsPass : public ReductionPass {
public:
  const char *name() const override { return "StripUnusedDefs"; }

  size_t countUnits(const Module &M) const override {
    size_t Count = 0;
    forEachUnit(M, [&Count](size_t, size_t, size_t) { ++Count; });
    return Count;
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    // Collect unit positions in enumeration order, then erase in reverse
    // so earlier indices stay valid.
    std::vector<std::array<size_t, 3>> Positions;
    forEachUnit(M, [&Positions](size_t F, size_t B, size_t I) {
      Positions.push_back({F, B, I});
    });
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;) {
      const std::array<size_t, 3> &P = Positions[UnitIndices[U]];
      std::vector<Instruction> &Body = Out.Functions[P[0]].Blocks[P[1]].Body;
      Body.erase(Body.begin() + static_cast<ptrdiff_t>(P[2]));
    }
    return Out;
  }

private:
  template <typename Callable>
  static void forEachUnit(const Module &M, Callable Action) {
    std::set<Id> Used = usedIdsOf(M);
    for (size_t F = 0; F != M.Functions.size(); ++F)
      for (size_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
        const std::vector<Instruction> &Body =
            M.Functions[F].Blocks[B].Body;
        for (size_t I = 0; I != Body.size(); ++I) {
          const Instruction &Inst = Body[I];
          if (Inst.Result == InvalidId || isTerminator(Inst.Opcode) ||
              !isSideEffectFree(Inst.Opcode))
            continue;
          if (Used.count(Inst.Result))
            continue;
          Action(F, B, I);
        }
      }
  }
};

/// Removes module-level declarations (types, constants, variables) that
/// are transitively unreferenced from the functions and the Uniform/Output
/// interface. Uniform and Output variables are the reference program's
/// observable surface (input bindings and reported results) and are never
/// removed.
class StripUnusedTypesAndGlobalsPass : public ReductionPass {
public:
  const char *name() const override { return "StripUnusedTypesAndGlobals"; }

  size_t countUnits(const Module &M) const override {
    return deadGlobals(M).size();
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    std::vector<size_t> Dead = deadGlobals(M);
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;)
      Out.GlobalInsts.erase(Out.GlobalInsts.begin() +
                            static_cast<ptrdiff_t>(Dead[UnitIndices[U]]));
    return Out;
  }

private:
  static bool isInterfaceVariable(const Instruction &Inst) {
    if (Inst.Opcode != Op::Variable)
      return false;
    auto SC = static_cast<StorageClass>(Inst.literalOperand(0));
    return SC == StorageClass::Uniform || SC == StorageClass::Output;
  }

  /// Indices (into GlobalInsts) of removable globals, in declaration
  /// order. Liveness roots are every id used from function code and the
  /// interface variables; because globals only reference earlier globals,
  /// one reverse scan computes the transitive closure.
  static std::vector<size_t> deadGlobals(const Module &M) {
    std::set<Id> Live;
    auto Mark = [&Live](Id TheId) { Live.insert(TheId); };
    for (const Function &F : M.Functions) {
      F.Def.forEachUsedId(Mark);
      for (const Instruction &Param : F.Params)
        Param.forEachUsedId(Mark);
      for (const BasicBlock &B : F.Blocks)
        for (const Instruction &Inst : B.Body)
          Inst.forEachUsedId(Mark);
    }
    for (size_t I = M.GlobalInsts.size(); I-- > 0;) {
      const Instruction &Inst = M.GlobalInsts[I];
      if (isInterfaceVariable(Inst) || Live.count(Inst.Result))
        Inst.forEachUsedId(Mark);
    }
    std::vector<size_t> Dead;
    for (size_t I = 0; I != M.GlobalInsts.size(); ++I) {
      const Instruction &Inst = M.GlobalInsts[I];
      if (!isInterfaceVariable(Inst) && !Live.count(Inst.Result))
        Dead.push_back(I);
    }
    return Dead;
  }
};

/// Removes functions unreachable from the entry point via FunctionCall —
/// the generator's helper functions frequently end up uncalled. Computed
/// transitively, so whole dead call chains go in one candidate.
class SimplifyReferenceProgramPass : public ReductionPass {
public:
  const char *name() const override { return "SimplifyReferenceProgram"; }

  size_t countUnits(const Module &M) const override {
    return deadFunctions(M).size();
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    std::vector<size_t> Dead = deadFunctions(M);
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;)
      Out.Functions.erase(Out.Functions.begin() +
                          static_cast<ptrdiff_t>(Dead[UnitIndices[U]]));
    return Out;
  }

private:
  /// Indices (into Functions) of functions unreachable from the entry
  /// point, in declaration order.
  static std::vector<size_t> deadFunctions(const Module &M) {
    std::set<Id> Reachable;
    std::vector<Id> Worklist;
    Reachable.insert(M.EntryPointId);
    Worklist.push_back(M.EntryPointId);
    while (!Worklist.empty()) {
      Id FuncId = Worklist.back();
      Worklist.pop_back();
      const Function *F = M.findFunction(FuncId);
      if (!F)
        continue;
      for (const BasicBlock &B : F->Blocks)
        for (const Instruction &Inst : B.Body)
          if (Inst.Opcode == Op::FunctionCall &&
              Reachable.insert(Inst.idOperand(0)).second)
            Worklist.push_back(Inst.idOperand(0));
    }
    std::vector<size_t> Dead;
    for (size_t I = 0; I != M.Functions.size(); ++I)
      if (!Reachable.count(M.Functions[I].id()))
        Dead.push_back(I);
    return Dead;
  }
};

} // namespace

const std::vector<ReductionPassPtr> &spvfuzz::standardPostReducePasses() {
  static const std::vector<ReductionPassPtr> Passes = {
      std::make_shared<StripUnusedDefsPass>(),
      std::make_shared<StripUnusedTypesAndGlobalsPass>(),
      std::make_shared<SimplifyReferenceProgramPass>(),
  };
  return Passes;
}

ReductionPassPtr spvfuzz::findPostReducePass(const std::string &Name) {
  for (const ReductionPassPtr &Pass : standardPostReducePasses())
    if (Name == Pass->name())
      return Pass;
  return nullptr;
}

void ReductionPipeline::postReduceStage(const Module &Original,
                                        const ShaderInput &Input,
                                        const InterestingnessTest &Test,
                                        ReduceResult &Result) const {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  telemetry::TraceSpan Span("reduce.post");

  std::vector<ReductionPassPtr> Passes;
  if (Plan.PostPasses.empty()) {
    Passes = standardPostReducePasses();
  } else {
    for (const std::string &Name : Plan.PostPasses)
      if (ReductionPassPtr Pass = findPostReducePass(Name))
        Passes.push_back(std::move(Pass));
  }
  Result.PostStats.clear();
  Result.PostStats.resize(Passes.size());
  for (size_t P = 0; P != Passes.size(); ++P)
    Result.PostStats[P].Pass = Passes[P]->name();

  Module Ref = Original;
  bool RefChanged = false;

  // Tries one candidate: validate (free — above-the-validator layering;
  // rejection costs no check), replay the minimized sequence onto it
  // (Definition 2.5 skips transformations whose preconditions the removal
  // broke), then re-check interestingness. Strictly serial, so the post
  // stage is trivially job-count-invariant.
  auto TryCandidate = [&](const ReductionPass &Pass, PostReducePassStats &Stat,
                          const std::vector<size_t> &Units) {
    Module Candidate = Pass.withUnitsRemoved(Ref, Units);
    ++Stat.Attempted;
    if (!validateModule(Candidate).empty())
      return false;
    Module Variant = Candidate;
    FactManager Facts;
    Facts.setKnownInput(Input);
    applySequence(Variant, Facts, Result.Minimized);
    ++Stat.Checks;
    ++Result.Checks;
    if (Metrics.enabled())
      Metrics.add("reducer.postreduce.checks");
    if (!Test(Variant, Facts))
      return false;
    Ref = std::move(Candidate);
    ++Stat.Accepted;
    if (Metrics.enabled())
      Metrics.add("reducer.postreduce.accepted");
    return true;
  };

  // Pass-list fixpoint: each round runs every pass to its own local
  // fixpoint (all units at once first, then greedy single units); rounds
  // repeat while anything changed, so one pass's removals (an uncalled
  // function, say) expose the next pass's units (its orphaned constants).
  // Every acceptance strictly shrinks the module, so this terminates; the
  // round bound is a belt-and-braces backstop.
  const size_t MaxRounds = 64;
  for (size_t Round = 0; Round != MaxRounds; ++Round) {
    bool RoundChanged = false;
    for (size_t P = 0; P != Passes.size(); ++P) {
      const ReductionPass &Pass = *Passes[P];
      PostReducePassStats &Stat = Result.PostStats[P];
      while (true) {
        const size_t N = Pass.countUnits(Ref);
        if (N == 0)
          break;
        bool ChangedHere = false;
        if (N > 1) {
          std::vector<size_t> All(N);
          std::iota(All.begin(), All.end(), size_t{0});
          ChangedHere = TryCandidate(Pass, Stat, All);
        }
        for (size_t I = N; !ChangedHere && I-- > 0;)
          ChangedHere = TryCandidate(Pass, Stat, {I});
        if (!ChangedHere)
          break;
        RoundChanged = true;
        RefChanged = true;
      }
    }
    if (!RoundChanged)
      break;
  }

  Result.ReducedOriginal = std::move(Ref);
  if (RefChanged) {
    // Re-derive the reduced variant from the post-reduced reference: the
    // reproducer the pipeline hands back is (ReducedOriginal, Minimized).
    Result.ReducedVariant = Result.ReducedOriginal;
    Result.ReducedFacts = FactManager();
    Result.ReducedFacts.setKnownInput(Input);
    applySequence(Result.ReducedVariant, Result.ReducedFacts,
                  Result.Minimized);
  }
  Span.note({"checks", Result.Checks});
  Span.note({"reference_instructions",
             Result.ReducedOriginal.instructionCount()});
}

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

ReduceResult ReductionPipeline::run(const Module &Original,
                                    const ShaderInput &Input,
                                    const TransformationSequence &Sequence,
                                    const InterestingnessTest &Test) const {
  ReduceResult Result = reduceSequenceStage(Original, Input, Sequence, Test);

  if (Plan.ShrinkFunctions) {
    // The §3.4 spirv-reduce step: shrink any surviving AddFunction
    // payloads. Check accounting folds into the pipeline totals.
    bool HasAddFunction = false;
    for (const TransformationPtr &Tr : Result.Minimized)
      if (Tr->kind() == TransformationKind::AddFunction)
        HasAddFunction = true;
    if (HasAddFunction) {
      size_t PriorChecks = Result.Checks;
      size_t PriorSpeculative = Result.SpeculativeChecks;
      Result = shrinkAddFunctions(Original, Input, Result.Minimized, Test);
      Result.Checks += PriorChecks;
      Result.SpeculativeChecks += PriorSpeculative;
    }
  }

  if (Plan.PostReduce)
    postReduceStage(Original, Input, Test, Result);

  return Result;
}

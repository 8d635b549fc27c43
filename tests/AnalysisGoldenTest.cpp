//===- tests/AnalysisGoldenTest.cpp - CFG/dominator/availability golden ---===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins every observable answer of the per-function analyses over the
/// same subjects as opt_golden_test: fixed seeds of generated programs,
/// fuzzed variants and partly replayed variants, plus every intermediate
/// module of each standard target pipeline walked without bugs (these
/// carry the unreachable blocks and merged chains the passes leave
/// behind). For every function the digest covers each block's successor
/// and predecessor lists, the reverse postorder, isReachable of every
/// block and branch target, each block's immediate dominator, dominates
/// over all block pairs, and idAvailableBefore / idAvailableAtEnd for
/// every (defined id, block) pair. A rewrite of Cfg, DominatorTree or
/// ModuleAnalysis must leave every line exactly as it was.
///
/// The table lives in tests/golden/analysis_hashes.txt. On a mismatch the
/// test writes the table it computed into gtest's temp dir and names the
/// file; a deliberate behaviour change regenerates the golden by copying
/// that file over it.
///
//===----------------------------------------------------------------------===//

#include "analysis/ModuleAnalysis.h"
#include "core/Fuzzer.h"
#include "gen/Generator.h"
#include "opt/Passes.h"
#include "support/ModuleHash.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace spvfuzz;

namespace {

constexpr uint64_t Seeds = 32;

/// The variant recipe of OptPassProperty: two donors, limit 250.
FuzzResult fuzzVariant(const GeneratedProgram &Program, uint64_t Seed) {
  std::vector<GeneratedProgram> DonorPrograms = generateCorpus(2, Seed + 500);
  std::vector<const Module *> Donors;
  for (const GeneratedProgram &Donor : DonorPrograms)
    Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = 250;
  return fuzz(Program.M, Program.Input, Donors, Seed, Options);
}

/// The variant's sequence replayed with every third transformation left
/// out, as in opt_golden_test.
Module cutVariant(const GeneratedProgram &Program,
                  const TransformationSequence &Sequence) {
  TransformationSequence Kept;
  for (size_t I = 0; I < Sequence.size(); ++I)
    if (I % 3 != 1)
      Kept.push_back(Sequence[I]);
  Module Variant = Program.M;
  FactManager Facts;
  Facts.setKnownInput(Program.Input);
  applySequence(Variant, Facts, Kept);
  return Variant;
}

template <typename Range> void list(StructuralHasher &H, const Range &Ids) {
  H.word(Ids.size());
  for (Id TheId : Ids)
    H.word(TheId);
}

/// Packs a run of booleans into words, so the all-pairs tables stay cheap
/// to hash.
class BitSink {
public:
  explicit BitSink(StructuralHasher &H) : H(H) {}
  ~BitSink() { H.word(Bits ^ (uint64_t(Count) << 58)); }
  void bit(bool B) {
    Bits = (Bits << 1) | (B ? 1 : 0);
    if (++Count == 58) {
      H.word(Bits);
      Bits = 0;
      Count = 0;
    }
  }

private:
  StructuralHasher &H;
  uint64_t Bits = 0;
  unsigned Count = 0;
};

uint64_t analysisDigest(const Module &M) {
  ModuleAnalysis Analysis(M);
  std::vector<Id> Defined;
  for (Id TheId = 0; TheId < M.Bound; ++TheId)
    if (Analysis.defInfo(TheId))
      Defined.push_back(TheId);

  StructuralHasher H;
  for (const Function &Func : M.Functions) {
    H.word(Func.id());
    if (Func.Blocks.empty())
      continue;
    const Cfg &Graph = Analysis.cfg(Func.id());
    H.word(Graph.entryId());
    for (const BasicBlock &Block : Func.Blocks) {
      H.word(Block.LabelId);
      list(H, Graph.successors(Block.LabelId));
      list(H, Graph.predecessors(Block.LabelId));
      H.word(Graph.isReachable(Block.LabelId));
      for (Id Succ : Block.successors())
        H.word(Graph.isReachable(Succ));
    }
    list(H, Graph.reversePostorder());

    const DominatorTree &Dom = Analysis.domTree(Func.id());
    for (const BasicBlock &Block : Func.Blocks)
      H.word(Dom.immediateDominator(Block.LabelId));
    {
      BitSink Sink(H);
      for (const BasicBlock &A : Func.Blocks)
        for (const BasicBlock &B : Func.Blocks)
          Sink.bit(Dom.dominates(A.LabelId, B.LabelId));
    }
    {
      BitSink Sink(H);
      for (Id Def : Defined)
        for (const BasicBlock &Block : Func.Blocks) {
          Sink.bit(Analysis.idAvailableBefore(Def, Func.id(), Block.LabelId,
                                              0));
          Sink.bit(Analysis.idAvailableBefore(Def, Func.id(), Block.LabelId,
                                              Block.Body.size() / 2));
          Sink.bit(Analysis.idAvailableAtEnd(Def, Func.id(), Block.LabelId));
        }
    }
  }
  return H.digest();
}

/// Digests are memoized by (structure, bound): most pipeline steps leave
/// the module unchanged.
class DigestMemo {
public:
  uint64_t operator()(const Module &M) {
    auto Key = std::make_pair(hashModule(M), M.Bound);
    auto It = Memo.find(Key);
    if (It == Memo.end())
      It = Memo.emplace(Key, analysisDigest(M)).first;
    return It->second;
  }

private:
  std::map<std::pair<uint64_t, Id>, uint64_t> Memo;
};

void record(std::ostream &Out, const std::string &Subject,
            const std::string &Check, uint64_t Hash) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Hash);
  Out << Subject << ' ' << Check << ' ' << Hex << '\n';
}

void recordModule(std::ostream &Out, const std::string &Subject,
                  const Module &M, const TargetFleet &Fleet,
                  DigestMemo &Digest) {
  record(Out, Subject, "module", Digest(M));
  for (const Target &T : Fleet) {
    StructuralHasher Steps;
    Module Clean = M;
    for (OptPassKind Pass : T.spec().Pipeline) {
      runOptPass(Pass, Clean, BugHost());
      Steps.word(Digest(Clean));
    }
    record(Out, Subject, "steps:" + T.name(), Steps.digest());
  }
}

std::string computeTable() {
  std::ostringstream Out;
  Out << "# subject check analysis-digest\n";
  TargetFleet Fleet = TargetFleet::standard();
  DigestMemo Digest;
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzResult Fuzzed = fuzzVariant(Program, Seed);
    std::string Suffix = "/" + std::to_string(Seed);
    recordModule(Out, "orig" + Suffix, Program.M, Fleet, Digest);
    recordModule(Out, "var" + Suffix, Fuzzed.Variant, Fleet, Digest);
    recordModule(Out, "cut" + Suffix, cutVariant(Program, Fuzzed.Sequence),
                 Fleet, Digest);
  }
  return Out.str();
}

std::vector<std::string> linesOf(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

TEST(AnalysisGolden, EveryFunctionMatchesTheRecordedTable) {
  std::string Actual = computeTable();
  std::ifstream In(SPVFUZZ_ANALYSIS_GOLDEN);
  std::stringstream Expected;
  Expected << In.rdbuf();
  if (Actual == Expected.str())
    return;

  std::string ActualPath = ::testing::TempDir() + "analysis_hashes.txt";
  std::ofstream(ActualPath) << Actual;
  std::vector<std::string> Want = linesOf(Expected.str());
  std::vector<std::string> Got = linesOf(Actual);
  size_t Shown = 0;
  for (size_t I = 0; I < std::max(Want.size(), Got.size()) && Shown < 10;
       ++I) {
    std::string W = I < Want.size() ? Want[I] : "<missing>";
    std::string G = I < Got.size() ? Got[I] : "<missing>";
    if (W != G) {
      ADD_FAILURE() << "line " << I + 1 << "\n  golden: " << W
                    << "\n  actual: " << G;
      ++Shown;
    }
  }
  FAIL() << "the golden table " << SPVFUZZ_ANALYSIS_GOLDEN
         << " does not match; the computed table is in " << ActualPath;
}

} // namespace

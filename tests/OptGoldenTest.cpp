//===- tests/OptGoldenTest.cpp - Per-pass output hash golden table --------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what every optimization pass produces, pass by pass: fixed seeds
/// of generated programs, fuzzed variants and partly replayed variants
/// go through each pass alone
/// (with no bugs and with every bug enabled) and through every standard
/// target pipeline (with the target's bugs and with none). Each line of
/// the golden table records the structural hash of the output module and
/// the crash signature, so a rewrite of a pass must leave every output
/// module and every injected-bug firing point exactly as they were.
///
/// The table lives in tests/golden/opt_pass_hashes.txt. On a mismatch the
/// test writes the table it computed next to gtest's temp dir and names
/// the file; a deliberate behaviour change regenerates the golden by
/// copying that file over it.
///
//===----------------------------------------------------------------------===//

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
#include <sstream>

using namespace spvfuzz;

namespace {

constexpr uint64_t Seeds = 32;

const std::vector<OptPassKind> AllPasses = {
    OptPassKind::FrontendCheck,  OptPassKind::SimplifyCfg,
    OptPassKind::DeadBranchElim, OptPassKind::ConstantFold,
    OptPassKind::CopyPropagation, OptPassKind::LoadStoreForwarding,
    OptPassKind::DeadStoreElim,  OptPassKind::Inliner,
    OptPassKind::LocalCSE,       OptPassKind::PhiSimplify,
    OptPassKind::BlockLayout,    OptPassKind::Dce,
};

/// Every injectable bug point, so a pass run alone under it fires any bug
/// it hosts.
BugHost everyBug() {
  std::set<BugPoint> All;
  for (uint8_t P = 0;
       P <= static_cast<uint8_t>(BugPoint::MiscompileAliasBlindForward); ++P)
    All.insert(static_cast<BugPoint>(P));
  return BugHost(std::move(All));
}

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
/// out: the shape a reducer's chunk removal leaves behind, where a
/// synonym's only user can be gone (an unused CompositeConstruct).
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

void record(std::ostream &Out, const std::string &Subject,
            const std::string &Check, uint64_t Hash,
            const std::string &Crashes) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Hash);
  Out << Subject << ' ' << Check << ' ' << Hex << ' '
      << (Crashes.empty() ? "-" : Crashes) << '\n';
}

void record(std::ostream &Out, const std::string &Subject,
            const std::string &Check, const Module &Result,
            const PassCrash &Crash) {
  record(Out, Subject, Check, hashModule(Result), Crash.value_or(""));
}

/// Walks \p T's pipeline without bugs and, before each step, also runs
/// that step alone under \p AllBugs, so bug points that only a
/// mid-pipeline module reaches (a composite left unused by constant
/// folding) are pinned too. One line: a hash over every intermediate and
/// every buggy step's output, and the step:signature list of what fired.
void recordSteps(std::ostream &Out, const std::string &Subject,
                 const Module &M, const Target &T, const BugHost &AllBugs) {
  const std::vector<OptPassKind> &Pipeline = T.spec().Pipeline;
  StructuralHasher Digest;
  std::string Fired;
  Module Clean = M;
  for (size_t Step = 0; Step < Pipeline.size(); ++Step) {
    Module Buggy = Clean;
    // Separate appends: a chained operator+ on the conditional
    // `const char *` trips GCC 12's -Wrestrict false positive (PR105651).
    if (PassCrash Crash = runOptPass(Pipeline[Step], Buggy, AllBugs)) {
      if (!Fired.empty())
        Fired += ';';
      Fired += std::to_string(Step);
      Fired += ':';
      Fired += *Crash;
    }
    Digest.word(hashModule(Buggy));
    runOptPass(Pipeline[Step], Clean, BugHost());
    Digest.word(hashModule(Clean));
  }
  record(Out, Subject, "steps:" + T.name(), Digest.digest(), Fired);
}

void recordModule(std::ostream &Out, const std::string &Subject,
                  const Module &M, const TargetFleet &Fleet) {
  const BugHost NoBugs, AllBugs = everyBug();
  for (OptPassKind Kind : AllPasses) {
    Module Clean = M;
    PassCrash Crash = runOptPass(Kind, Clean, NoBugs);
    record(Out, Subject, std::string("pass:") + optPassName(Kind), Clean,
           Crash);
    Module Buggy = M;
    Crash = runOptPass(Kind, Buggy, AllBugs);
    record(Out, Subject, std::string("pass+bugs:") + optPassName(Kind), Buggy,
           Crash);
  }
  for (const Target &T : Fleet) {
    Module Compiled;
    PassCrash Crash = T.compile(M, Compiled);
    record(Out, Subject, "target:" + T.name(), Compiled, Crash);
    Module Clean = M;
    Crash = runPipeline(T.spec().Pipeline, Clean, NoBugs);
    record(Out, Subject, "target-clean:" + T.name(), Clean, Crash);
    recordSteps(Out, Subject, M, T, AllBugs);
  }
}

std::string computeTable() {
  std::ostringstream Out;
  Out << "# subject check module-hash crash-signatures\n";
  TargetFleet Fleet = TargetFleet::standard();
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzResult Fuzzed = fuzzVariant(Program, Seed);
    std::string Suffix = "/" + std::to_string(Seed);
    recordModule(Out, "orig" + Suffix, Program.M, Fleet);
    recordModule(Out, "var" + Suffix, Fuzzed.Variant, Fleet);
    recordModule(Out, "cut" + Suffix, cutVariant(Program, Fuzzed.Sequence),
                 Fleet);
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

TEST(OptGolden, EveryPassAndPipelineMatchesTheRecordedTable) {
  std::string Actual = computeTable();
  std::ifstream In(SPVFUZZ_OPT_GOLDEN);
  std::stringstream Expected;
  Expected << In.rdbuf();
  if (Actual == Expected.str())
    return;

  std::string ActualPath = ::testing::TempDir() + "opt_pass_hashes.txt";
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
  FAIL() << "the golden table " << SPVFUZZ_OPT_GOLDEN
         << " does not match; the computed table is in " << ActualPath;
}

} // namespace

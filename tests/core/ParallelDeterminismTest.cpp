//===- ParallelDeterminismTest.cpp - Jobs=N == Jobs=1 -----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The acceptance gate of the parallel abstraction pipeline: running the
/// synthetic Table 5 corpus at Jobs=1 and Jobs=N must produce
/// byte-identical rendered specifications, identical finalKey()s, and
/// identical pipeline-theorem conclusions per function. A second Jobs=N
/// run guards against run-to-run scheduling nondeterminism.
///
/// The corpus defaults to sel4Scale(); AC_DET_CORPUS selects a smaller
/// preset (e.g. "echronos") so the ThreadSanitizer tier-1 pass stays
/// within budget.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "corpus/Synthetic.h"
#include "hol/Print.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace ac;

namespace {

corpus::SyntheticSpec detCorpus() {
  const char *E = std::getenv("AC_DET_CORPUS");
  std::string Name = E ? E : "sel4";
  if (Name == "capdl")
    return corpus::capdlScale();
  if (Name == "piccolo")
    return corpus::piccoloScale();
  if (Name == "echronos")
    return corpus::echronosScale();
  return corpus::sel4Scale();
}

/// Everything the determinism gate compares, per function.
struct Snapshot {
  std::vector<std::string> Names;
  std::vector<std::string> Rendered;
  std::vector<std::string> FinalKeys;
  std::vector<std::string> PipelineConcls;
  std::vector<std::string> Diags;
};

Snapshot runAt(const std::string &Src, unsigned Jobs) {
  DiagEngine Diags;
  core::ACOptions Opts;
  Opts.Jobs = Jobs;
  auto AC = core::AutoCorres::run(Src, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  Snapshot S;
  if (!AC)
    return S;
  EXPECT_EQ(AC->stats().Jobs, Jobs);
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    if (!F) {
      ADD_FAILURE() << "no output for " << Name;
      continue;
    }
    S.Names.push_back(Name);
    S.Rendered.push_back(AC->render(Name));
    S.FinalKeys.push_back(F->finalKey());
    S.PipelineConcls.push_back(hol::printTerm(F->Pipeline.prop()));
  }
  for (const Diagnostic &D : Diags.diagnostics())
    S.Diags.push_back(D.str());
  return S;
}

void expectIdentical(const Snapshot &A, const Snapshot &B,
                     const std::string &What) {
  ASSERT_EQ(A.Names.size(), B.Names.size()) << What;
  for (size_t I = 0; I != A.Names.size(); ++I) {
    ASSERT_EQ(A.Names[I], B.Names[I]) << What;
    EXPECT_EQ(A.FinalKeys[I], B.FinalKeys[I])
        << What << ": finalKey diverged for " << A.Names[I];
    EXPECT_EQ(A.Rendered[I], B.Rendered[I])
        << What << ": rendered spec diverged for " << A.Names[I];
    EXPECT_EQ(A.PipelineConcls[I], B.PipelineConcls[I])
        << What << ": pipeline conclusion diverged for " << A.Names[I];
  }
  EXPECT_EQ(A.Diags, B.Diags) << What << ": diagnostic stream diverged";
}

/// A caller defined before its callee, which C accepts without a
/// prototype. No synthetic program has such a forward call.
const char *ForwardCallSrc = "int f(int x) { return g(x) + 1; }\n"
                             "int g(int x) { return x * 2; }\n";

} // namespace

TEST(ParallelDeterminism, ParallelMatchesSerialAndItself) {
  std::string Src = corpus::generateSyntheticProgram(detCorpus());

  Snapshot Serial = runAt(Src, 1);
  ASSERT_FALSE(Serial.Names.empty());

  Snapshot Par = runAt(Src, 4);
  expectIdentical(Serial, Par, "Jobs=1 vs Jobs=4");

  // Again at the same job count: no run-to-run schedule sensitivity.
  Snapshot Par2 = runAt(Src, 4);
  expectIdentical(Par, Par2, "Jobs=4 vs Jobs=4 (rerun)");
}

TEST(ParallelDeterminism, OddJobCountAndSmallCorpus) {
  // A second shape: job count that does not divide the SCC count evenly,
  // on the smallest preset (cheap enough to always run).
  std::string Src =
      corpus::generateSyntheticProgram(corpus::echronosScale());
  Snapshot Serial = runAt(Src, 1);
  Snapshot Par = runAt(Src, 3);
  expectIdentical(Serial, Par, "Jobs=1 vs Jobs=3");
}

TEST(ParallelDeterminism, ForwardCallMatchesAcrossJobCounts) {
  // Every job count abstracts callees first, so f sees g's final
  // abstraction at Jobs=1 exactly as it does at Jobs=4.
  Snapshot Serial = runAt(ForwardCallSrc, 1);
  ASSERT_EQ(Serial.Names.size(), 2u);
  expectIdentical(Serial, runAt(ForwardCallSrc, 4), "Jobs=1 vs Jobs=4");
}

TEST(ParallelDeterminism, PrototypeBeforeDefinitionChangesNothing) {
  // A prototype ahead of the definition must resolve calls to the
  // definition: same output as without the prototype, at any job count.
  std::string WithProto = std::string("int g(int);\n") + ForwardCallSrc;
  Snapshot Plain = runAt(ForwardCallSrc, 1);
  ASSERT_EQ(Plain.Names.size(), 2u);
  for (unsigned Jobs : {1u, 4u})
    expectIdentical(Plain, runAt(WithProto, Jobs),
                    "with prototype, Jobs=" + std::to_string(Jobs));
}

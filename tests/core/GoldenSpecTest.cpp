//===- GoldenSpecTest.cpp - Golden-file snapshot suite ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the exact rendered output of the whole pipeline on the paper's
/// example programs against checked-in golden files (tests/golden/). Any
/// change to parsing, abstraction, simplification or printing that moves
/// a single byte of a final specification shows up as a readable diff
/// here — this is the guard rail the abstraction cache is validated
/// against, since cache hits replay exactly these rendered artefacts.
///
/// Regenerate after an intentional output change with
///
///   AC_UPDATE_GOLDEN=1 ./test_golden
///
/// and review the fixture diff like any other code change. The suite
/// honours $AC_CACHE_DIR / $AC_CACHE (see core/ResultCache.h) and prints
/// a `[cache] hits=N misses=M` line per run when the cache is enabled, so
/// the tier-1 script can assert a warm second run actually hits.
///
//===----------------------------------------------------------------------===//

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "corpus/Sources.h"
#include "hol/Cert.h"
#include "support/Fingerprint.h"

#include "../../tools/acpc_check.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ac;

// Certificate recording is process-sticky and must be live before a
// theorem is minted for its derivation to be replayable; enabling it at
// static-init keeps the GoldenCert suite below independent of test
// order (a memoised theorem minted by an earlier snapshot test stays
// exportable). Recording never changes rendered output — the
// differential suite pins that — so the snapshot tests are unaffected.
static const bool CertRecordingOn = [] {
  ac::hol::CertLog::enable();
  return true;
}();

#ifndef AC_GOLDEN_DIR
#error "AC_GOLDEN_DIR must point at the checked-in tests/golden directory"
#endif

namespace {

bool updateMode() {
  const char *E = std::getenv("AC_UPDATE_GOLDEN");
  return E && *E && std::string(E) != "0";
}

std::string goldenPath(const std::string &Name) {
  return std::string(AC_GOLDEN_DIR) + "/" + Name + ".expected";
}

/// One canonical dump of everything user-visible a run produces, in
/// FunctionOrder: per function its final-definition key, the rendered
/// spec, and the composed theorem's proposition; the diagnostic stream
/// at the end. The same accessors serve live terms and cache replays,
/// so golden comparisons hold verbatim for warm runs.
std::string snapshot(const std::string &Source) {
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Source, Diags);
  EXPECT_TRUE(AC) << Diags.str();
  if (!AC)
    return "<run failed>\n" + Diags.str();

  std::ostringstream OS;
  for (const std::string &Name : AC->order()) {
    const core::FuncOutput *F = AC->func(Name);
    if (!F) {
      ADD_FAILURE() << "no output for " << Name;
      continue;
    }
    OS << "== function: " << Name << "\n";
    OS << "final: " << F->finalKey() << "\n";
    OS << "-- spec\n" << AC->render(Name) << "\n";
    OS << "-- theorem\n" << F->pipelineProp() << "\n";
  }
  OS << "== diagnostics\n";
  for (const Diagnostic &D : Diags.diagnostics())
    OS << D.str() << "\n";

  const core::ACStats &St = AC->stats();
  if (St.CacheEnabled)
    std::printf("[cache] hits=%u misses=%u\n", St.CacheHits,
                St.CacheMisses);
  return OS.str();
}

void checkGolden(const std::string &Name, const char *Source) {
  std::string Actual = snapshot(Source);
  std::string Path = goldenPath(Name);

  if (updateMode()) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    return;
  }

  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good())
      << "missing golden file " << Path
      << " (generate with AC_UPDATE_GOLDEN=1)";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "pipeline output diverged from " << Path
      << "; if intentional, regenerate with AC_UPDATE_GOLDEN=1 and "
         "review the fixture diff";
}

//===----------------------------------------------------------------------===//
// Golden proof certificates
//===----------------------------------------------------------------------===//

/// One pipeline run that exports a certificate. A private scratch cache
/// directory forces a cold run even under the tier-1 warm-cache replay
/// ($AC_CACHE_DIR): cache-replayed functions carry no live derivation
/// and would be skipped, and the fixture pins the *full* certificate.
std::string certBytes(const char *Source, unsigned Jobs,
                      const std::string &Scratch,
                      std::vector<std::string> &Order) {
  core::ACOptions Opts;
  Opts.Jobs = Jobs;
  Opts.CacheDir = Scratch + "/cache-j" + std::to_string(Jobs);
  Opts.CertPath = Scratch + "/out-j" + std::to_string(Jobs) + ".acpc";

  DiagEngine Diags;
  auto AC = core::AutoCorres::run(Source, Diags, Opts);
  EXPECT_TRUE(AC) << Diags.str();
  if (!AC)
    return "";
  Order = AC->order();
  EXPECT_EQ(AC->stats().CertClaims, Order.size());
  EXPECT_EQ(AC->stats().CertSkipped, 0u);

  std::ifstream In(Opts.CertPath, std::ios::binary);
  EXPECT_TRUE(In.good()) << "certificate was not written: " << Opts.CertPath;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The certificate analogue of checkGolden: emit at two job counts
/// (byte-identical by construction), re-check with the independent
/// checker, and pin the exact bytes against tests/golden/<name>.acpc.
void checkGoldenCert(const std::string &Name, const char *Source) {
  namespace fs = std::filesystem;
  std::string Scratch =
      (fs::temp_directory_path() /
       ("ac-goldencert-" + Name + "-" + std::to_string(getpid())))
          .string();
  std::error_code EC;
  fs::create_directories(Scratch, EC);
  ASSERT_FALSE(EC) << "cannot create scratch dir " << Scratch;

  std::vector<std::string> Order1, Order4;
  std::string C1 = certBytes(Source, /*Jobs=*/1, Scratch, Order1);
  std::string C4 = certBytes(Source, /*Jobs=*/4, Scratch, Order4);
  fs::remove_all(Scratch, EC);
  ASSERT_FALSE(C1.empty());
  EXPECT_EQ(C1, C4) << "certificate bytes depend on the job count";

  // Independent re-check: every pipeline theorem re-derives from the
  // leaves up, and the claims are exactly the run's functions in order.
  acpc::Result R = acpc::check(C1);
  ASSERT_TRUE(R.Ok) << Name << ": line " << R.Line << ": " << R.Error;
  ASSERT_EQ(R.Claims.size(), Order1.size());
  for (size_t I = 0; I != Order1.size(); ++I)
    EXPECT_EQ(R.Claims[I].first, Order1[I]);

  std::string Path = std::string(AC_GOLDEN_DIR) + "/" + Name + ".acpc";
  if (updateMode()) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << C1;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden certificate " << Path
                         << " (generate with AC_UPDATE_GOLDEN=1)";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), C1)
      << "certificate bytes diverged from " << Path
      << "; if intentional, regenerate with AC_UPDATE_GOLDEN=1 and "
         "review the fixture diff";
}

} // namespace

// The Sec 3.3 word-abstraction showcases.
TEST(GoldenSpec, Max) { checkGolden("max", corpus::maxSource()); }
TEST(GoldenSpec, Gcd) { checkGolden("gcd", corpus::gcdSource()); }

// The Sec 4 heap-abstraction showcases.
TEST(GoldenSpec, Swap) { checkGolden("swap", corpus::swapSource()); }
TEST(GoldenSpec, Midpoint) {
  checkGolden("midpoint", corpus::midpointSource());
}

// The Sec 5.2 case study: in-place linked-list reversal.
TEST(GoldenSpec, ListReversal) {
  checkGolden("reverse", corpus::reverseSource());
}

// Golden certificates over the same corpus: the exported derivation of
// every pipeline theorem is byte-stable across runs and job counts, and
// re-derives under the independent checker. Regenerate together with
// the snapshots via AC_UPDATE_GOLDEN=1.
TEST(GoldenCert, Max) { checkGoldenCert("max", corpus::maxSource()); }
TEST(GoldenCert, Gcd) { checkGoldenCert("gcd", corpus::gcdSource()); }
TEST(GoldenCert, Swap) { checkGoldenCert("swap", corpus::swapSource()); }
TEST(GoldenCert, Midpoint) {
  checkGoldenCert("midpoint", corpus::midpointSource());
}
TEST(GoldenCert, ListReversal) {
  checkGoldenCert("reverse", corpus::reverseSource());
}

// Per-function certificates (ACOptions::CertDir) are named by the cache
// key of the function each one certifies, which no fixture pins.
TEST(GoldenCert, CertDirNamesEachFileByItsFunctionKey) {
  namespace fs = std::filesystem;
  std::string Scratch = (fs::temp_directory_path() /
                         ("ac-certdir-" + std::to_string(getpid())))
                            .string();
  fs::remove_all(Scratch);
  core::ACOptions Opts;
  Opts.CacheDir = Scratch + "/cache"; // cold: a hit exports nothing
  Opts.CertDir = Scratch + "/certs";
  DiagEngine Diags;
  auto AC = core::AutoCorres::run(corpus::reverseSource(), Diags, Opts);
  ASSERT_TRUE(AC) << Diags.str();

  std::set<std::string> Want, Got;
  for (const auto &[Name, Key] : core::computeFunctionKeys(
           AC->program(), Opts.NoHeapAbs, Opts.NoWordAbs))
    Want.insert(support::Fingerprint::hex(Key) + ".acpc");
  for (const fs::directory_entry &E : fs::directory_iterator(Opts.CertDir))
    Got.insert(E.path().filename().string());
  fs::remove_all(Scratch);
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(AC->stats().CertsWritten, Want.size());
}

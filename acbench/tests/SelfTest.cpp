//===- SelfTest.cpp - Self-tests of the acbench inputs and helpers --------===//
//
// Checks the properties the benchmark's conclusions rest on:
//   - every edit step changes exactly one function body;
//   - the computeFunctionKeys fingerprints an edit changes are exactly
//     the edited function and its transitive callers;
//   - every workload's input sequence is a pure function of its seed;
//   - the fleet's units all define the same three functions, so each
//     check evicts the previous unit's entries from a shard's memory tier;
//   - the percentile helper reports a percentile only when at least ten
//     samples lie beyond it.
// acbench/run.py runs it after each build; exit status 0 means all hold.
//
//===----------------------------------------------------------------------===//

#include "../cpp/Bench.h"

#include <cstdio>

using namespace acbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

std::map<std::string, std::string> bodies(const std::string &Src) {
  std::map<std::string, std::string> Out;
  for (const FnExtent &F : functionExtents(Src))
    Out[F.Name] = Src.substr(F.Begin, F.End - F.Begin);
  return Out;
}

/// The source with every function definition cut out.
std::string outsideFunctions(const std::string &Src) {
  std::string Out;
  size_t Pos = 0;
  for (const FnExtent &F : functionExtents(Src)) {
    Out += Src.substr(Pos, F.Begin - Pos);
    Pos = F.End;
  }
  return Out + Src.substr(Pos);
}

void editStepsTouchOneFunction(uint64_t Seed) {
  std::string Src = editBase();
  check(functionExtents(Src).size() == 163, "edit base has 163 functions");
  Rng R(mixSeed(Seed, 5));
  for (int Step = 0; Step != 40; ++Step) {
    auto Before = bodies(Src);
    std::string Outside = outsideFunctions(Src);
    std::string Fn = applyEdit(Src, R);
    auto After = bodies(Src);
    check(outsideFunctions(Src) == Outside,
          "edit step " + std::to_string(Step) + " changed text outside "
          "function bodies");
    std::vector<std::string> Changed;
    for (const auto &[Name, Body] : After)
      if (!Before.count(Name) || Before[Name] != Body)
        Changed.push_back(Name);
    check(Before.size() == After.size() && Changed.size() == 1 &&
              Changed[0] == Fn,
          "edit step " + std::to_string(Step) + " must change exactly the "
          "body of " + Fn);
  }
}

void fingerprintsFollowCallers(uint64_t Seed) {
  std::string Src = editBase();
  Rng R(mixSeed(Seed, 5));
  std::map<std::string, uint64_t> Prev = functionKeys(Src);
  check(Prev.size() == 163, "edit base translates");
  for (int Step = 0; Step != 12; ++Step) {
    std::string Fn = applyEdit(Src, R);
    std::map<std::string, uint64_t> Now = functionKeys(Src);
    std::set<std::string> Changed;
    for (const auto &[Name, Key] : Now)
      if (Prev[Name] != Key)
        Changed.insert(Name);
    check(Changed == withTransitiveCallers(Src, Fn),
          "edit of " + Fn + " re-keys exactly it and its transitive callers");
    Prev = std::move(Now);
  }
}

void sequencesArePure() {
  for (uint64_t Seed : {1ull, 2ull, 977ull}) {
    check(coldOrder(Seed, 7, 500) == coldOrder(Seed, 7, 500),
          "cold order is seed-pure");
    check(walkPrograms(Seed) == walkPrograms(Seed), "walk is seed-pure");
    std::string A = editBase(), B = A;
    Rng RA(mixSeed(Seed, 5)), RB(mixSeed(Seed, 5));
    for (int I = 0; I != 20; ++I)
      check(applyEdit(A, RA) == applyEdit(B, RB) && A == B,
            "edit sequence is seed-pure");
    for (unsigned C = 0; C != 4; ++C)
      check(fleetDraws(Seed, C, 300) == fleetDraws(Seed, C, 300),
            "fleet draws are seed-pure");
  }
  check(coldOrder(1, 16, 50) != coldOrder(2, 16, 50),
        "seeds change the cold order");
  std::string A = editBase(), B = A;
  Rng RA(mixSeed(1, 5)), RB(mixSeed(2, 5));
  for (int I = 0; I != 20; ++I) {
    applyEdit(A, RA);
    applyEdit(B, RB);
  }
  check(A != B, "seeds change the edit sequence");
  check(fleetDraws(1, 0, 50) != fleetDraws(2, 0, 50),
        "seeds change the fleet draws");
  check(fleetDraws(1, 0, 50) != fleetDraws(1, 2, 50),
        "fleet clients draw different sequences");
}

void fleetUnitsShareNames() {
  std::vector<std::string> Pool = fleetPool();
  check(Pool.size() == FleetPoolSize &&
            std::set<std::string>(Pool.begin(), Pool.end()).size() ==
                FleetPoolSize,
        "the fleet pool holds distinct units");
  const std::vector<std::string> Want = {"calc_0", "update_1", "dispatch_2"};
  for (const std::string &Src : Pool) {
    std::vector<std::string> Got;
    for (const FnExtent &F : functionExtents(Src))
      Got.push_back(F.Name);
    check(Got == Want, "every fleet unit defines exactly calc_0, update_1 "
                       "and dispatch_2");
  }
}

void percentileNeedsTenBeyond() {
  auto Ramp = [](size_t N) {
    std::vector<double> V;
    for (size_t I = N; I > 0; --I)
      V.push_back(double(I));
    return V;
  };
  check(!percentile(Ramp(99), 0.9), "p90 of 99 samples has 9 beyond");
  auto P = percentile(Ramp(100), 0.9);
  check(P && *P == 90, "p90 of 1..100 is 90 (10 beyond)");
  check(!percentile(Ramp(19), 0.5), "p50 of 19 samples has 9 beyond");
  auto M = percentile(Ramp(20), 0.5);
  check(M && *M == 10, "p50 of 1..20 is 10 (10 beyond)");
  check(!percentile({}, 0.5), "no percentile of nothing");
  check(median({3, 1, 2}) == 2 && median({1, 2, 3, 4}) == 2.5, "median");
}

} // namespace

int main() {
  editStepsTouchOneFunction(1);
  editStepsTouchOneFunction(31337);
  fingerprintsFollowCallers(1);
  sequencesArePure();
  fleetUnitsShareNames();
  percentileNeedsTenBeyond();
  if (Failures) {
    std::fprintf(stderr, "acbench self-test: %d failure(s)\n", Failures);
    return 1;
  }
  std::fprintf(stderr, "acbench self-test: ok\n");
  return 0;
}

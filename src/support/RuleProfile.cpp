//===- RuleProfile.cpp - Per-rule firing and latency profile --------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//

#include "support/RuleProfile.h"

#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

namespace ac::support {

std::atomic<bool> RuleProfile::Armed{false};

namespace {

struct ProfState {
  std::mutex M;
  std::map<std::string, RuleProfile::Stat> Table;
};

ProfState &state() {
  static ProfState S;
  return S;
}

/// Nanoseconds nested rule attempts have consumed inside the attempt
/// currently open on this thread — the self-time discipline.
thread_local uint64_t ChildNs = 0;

} // namespace

void RuleProfile::setEnabled(bool On) {
  Armed.store(On, std::memory_order_relaxed);
}

void RuleProfile::reset() {
  ProfState &S = state();
  std::lock_guard<std::mutex> L(S.M);
  S.Table.clear();
}

void RuleProfile::preregister(const std::string &Name) {
  if (!enabled())
    return;
  ProfState &S = state();
  std::lock_guard<std::mutex> L(S.M);
  S.Table.try_emplace(Name);
}

void RuleProfile::record(const std::string &Name, bool Fired,
                         uint64_t SelfNs) {
  ProfState &S = state();
  std::lock_guard<std::mutex> L(S.M);
  Stat &St = S.Table[Name];
  if (Fired)
    ++St.Fires;
  else
    ++St.Misses;
  St.SelfNs += SelfNs;
}

std::map<std::string, RuleProfile::Stat> RuleProfile::snapshot() {
  ProfState &S = state();
  std::lock_guard<std::mutex> L(S.M);
  return S.Table;
}

std::string RuleProfile::table() {
  auto Snap = snapshot();
  std::vector<std::pair<std::string, Stat>> Rows(Snap.begin(), Snap.end());
  std::stable_sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.SelfNs > B.second.SelfNs;
  });
  std::string Out;
  char Line[256];
  snprintf(Line, sizeof(Line), "%-36s %10s %10s %12s\n", "rule", "fires",
           "misses", "self_us");
  Out += Line;
  uint64_t TotFires = 0, TotMisses = 0, TotNs = 0;
  for (const auto &[Name, S] : Rows) {
    snprintf(Line, sizeof(Line), "%-36s %10llu %10llu %12.1f\n", Name.c_str(),
             static_cast<unsigned long long>(S.Fires),
             static_cast<unsigned long long>(S.Misses),
             static_cast<double>(S.SelfNs) / 1000.0);
    Out += Line;
    TotFires += S.Fires;
    TotMisses += S.Misses;
    TotNs += S.SelfNs;
  }
  snprintf(Line, sizeof(Line), "%-36s %10llu %10llu %12.1f\n", "TOTAL",
           static_cast<unsigned long long>(TotFires),
           static_cast<unsigned long long>(TotMisses),
           static_cast<double>(TotNs) / 1000.0);
  Out += Line;
  return Out;
}

void RuleTimer::begin(std::string N) {
  Name = std::move(N);
  SavedChildNs = ChildNs;
  ChildNs = 0;
  StartNs = Trace::nowNs();
}

void RuleTimer::end() {
  uint64_t TotalNs = Trace::nowNs() - StartNs;
  uint64_t Nested = ChildNs < TotalNs ? ChildNs : TotalNs;
  RuleProfile::record(Name, Fired, TotalNs - Nested);
  ChildNs = SavedChildNs + TotalNs;
}

} // namespace ac::support

//===- Trace.cpp - Pipeline span tracing ----------------------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/RuleProfile.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include <unistd.h>

namespace ac::support {

std::atomic<bool> Trace::Enabled{false};

namespace {

/// The trace-write chaos site: proves a failing trace sink can never
/// fail the verification run it observes (tier-1 pass 7 drives it).
const FaultSite FaultTraceWrite("trace.write.fail");

struct TEvent {
  const char *Name; ///< Always a string literal at the call site.
  uint64_t StartNs;
  uint64_t EndNs;
  std::vector<std::pair<std::string, std::string>> Args;
};

/// One thread's ring buffer. Appends take the buffer's own mutex —
/// uncontended in steady state (only a concurrent flush/reset ever
/// competes), so the hot path stays lock-cheap while readers still see
/// consistent events.
struct ThreadBuf {
  std::mutex M;
  uint32_t Tid;
  size_t Cap;
  uint64_t Appended = 0; ///< total ever; the ring holds the last Cap
  std::vector<TEvent> Ring;
};

struct Registry {
  std::mutex M;
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  uint32_t NextTid = 1;
  size_t RingCap = 1 << 16;
  std::string EnvPath;
  std::string Role;
};

/// The steady anchor ts values count from, paired with the wall clock
/// read at the same instant so a merger can rebase fragments from
/// different processes onto one timeline. Microseconds keep the wall
/// value inside a double's 2^53 exact-integer range.
struct Anchors {
  std::chrono::steady_clock::time_point Steady;
  uint64_t UnixUs;
};

const Anchors &anchors() {
  static const Anchors A = [] {
    Anchors R;
    R.Steady = std::chrono::steady_clock::now();
    R.UnixUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    return R;
  }();
  return A;
}

Registry &reg() {
  static Registry R;
  return R;
}

/// Kept as a shared_ptr so the registry can still flush a buffer after
/// its owning thread exited (connection threads are short-lived).
thread_local std::shared_ptr<ThreadBuf> TLBuf;

ThreadBuf &myBuf() {
  if (!TLBuf) {
    auto B = std::make_shared<ThreadBuf>();
    Registry &R = reg();
    std::lock_guard<std::mutex> L(R.M);
    B->Tid = R.NextTid++;
    B->Cap = R.RingCap;
    R.Bufs.push_back(B);
    TLBuf = std::move(B);
  }
  return *TLBuf;
}

/// Snapshot of every buffer's events, in per-thread chronological order.
std::vector<std::pair<uint32_t, std::vector<TEvent>>> snapshotAll(bool Reset,
                                                                  uint64_t &Dropped) {
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  {
    Registry &R = reg();
    std::lock_guard<std::mutex> L(R.M);
    Bufs = R.Bufs;
  }
  std::vector<std::pair<uint32_t, std::vector<TEvent>>> Out;
  Dropped = 0;
  for (auto &B : Bufs) {
    std::lock_guard<std::mutex> L(B->M);
    std::vector<TEvent> Evs;
    size_t N = B->Ring.size();
    Evs.reserve(N);
    // Ring order: the oldest surviving event sits at Appended % Cap when
    // the ring has wrapped, index 0 otherwise.
    size_t First = B->Appended > B->Cap ? B->Appended % B->Cap : 0;
    for (size_t I = 0; I < N; ++I)
      Evs.push_back(B->Ring[(First + I) % N]);
    if (B->Appended > B->Cap)
      Dropped += B->Appended - B->Cap;
    if (Reset) {
      B->Ring.clear();
      B->Appended = 0;
    }
    Out.emplace_back(B->Tid, std::move(Evs));
  }
  return Out;
}

std::string renderJson(bool Reset) {
  uint64_t Dropped = 0;
  auto All = snapshotAll(Reset, Dropped);

  Json Root = Json::object();
  Json Events = Json::array();
  int Pid = static_cast<int>(getpid());
  for (auto &[Tid, Evs] : All) {
    for (auto &E : Evs) {
      Json J = Json::object();
      J.set("name", E.Name);
      J.set("cat", "ac");
      J.set("ph", "X");
      J.set("ts", static_cast<double>(E.StartNs) / 1000.0);
      J.set("dur", static_cast<double>(E.EndNs - E.StartNs) / 1000.0);
      J.set("pid", Pid);
      J.set("tid", static_cast<int>(Tid));
      if (!E.Args.empty()) {
        Json A = Json::object();
        for (auto &[K, V] : E.Args)
          A.set(K, V);
        J.set("args", std::move(A));
      }
      Events.push(std::move(J));
    }
  }
  Root.set("traceEvents", std::move(Events));
  Root.set("displayTimeUnit", "ms");

  // Per-rule firing profile, embedded so one file carries the whole
  // story. Extra top-level keys are legal Chrome trace JSON.
  Json Rules = Json::object();
  for (const auto &[Name, S] : RuleProfile::snapshot()) {
    Json R = Json::object();
    R.set("fires", S.Fires);
    R.set("misses", S.Misses);
    R.set("ns", S.SelfNs);
    Rules.set(Name, std::move(R));
  }
  Root.set("ruleProfile", std::move(Rules));

  Json Other = Json::object();
  Other.set("droppedEvents", Dropped);
  std::string Role = Trace::role();
  if (!Role.empty())
    Other.set("role", Role);
  Other.set("anchorUnixUs", static_cast<double>(anchors().UnixUs));
  Root.set("otherData", std::move(Other));
  return Root.dump();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  if (FaultTraceWrite.fire()) {
    fclose(F);
    remove(Path.c_str());
    return false;
  }
  bool Ok = fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = fflush(F) == 0 && Ok;
  Ok = fclose(F) == 0 && Ok;
  return Ok;
}

} // namespace

void Trace::ensureInit() {
  static const bool Inited = [] {
    if (const char *P = getenv("AC_TRACE"); P && *P) {
      reg().EnvPath = P;
      RuleProfile::setEnabled(true);
      Enabled.store(true, std::memory_order_relaxed);
    }
    return true;
  }();
  (void)Inited;
}

void Trace::start() {
  ensureInit();
  RuleProfile::setEnabled(true);
  Enabled.store(true, std::memory_order_relaxed);
}

void Trace::stop() { Enabled.store(false, std::memory_order_relaxed); }

void Trace::reset() {
  uint64_t Dropped;
  (void)snapshotAll(/*Reset=*/true, Dropped);
}

const std::string &Trace::envPath() {
  ensureInit();
  return reg().EnvPath;
}

uint64_t Trace::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchors().Steady)
          .count());
}

void Trace::setRole(const std::string &Role) {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  R.Role = Role;
}

std::string Trace::role() {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  return R.Role;
}

uint64_t Trace::nextSpanId() {
  static const uint64_t PidHi = static_cast<uint64_t>(getpid()) << 32;
  static std::atomic<uint32_t> Seq{0};
  return PidHi | (Seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

Trace::Context &Trace::context() {
  thread_local Context C;
  return C;
}

void Trace::record(const char *Name, uint64_t StartNs, uint64_t EndNs,
                   std::vector<std::pair<std::string, std::string>> Args) {
  ThreadBuf &B = myBuf();
  std::lock_guard<std::mutex> L(B.M);
  TEvent E{Name, StartNs, EndNs, std::move(Args)};
  if (B.Ring.size() < B.Cap)
    B.Ring.push_back(std::move(E));
  else
    B.Ring[B.Appended % B.Cap] = std::move(E);
  ++B.Appended;
}

void Trace::interval(const char *Name, uint64_t StartNs, uint64_t EndNs) {
  if (enabled())
    record(Name, StartNs, EndNs, {});
}

std::string Trace::exportJson(bool Reset) { return renderJson(Reset); }

bool Trace::flush(const std::string &Path) {
  return writeFile(Path, renderJson(/*Reset=*/false));
}

bool Trace::flushReset(const std::string &Path) {
  return writeFile(Path, renderJson(/*Reset=*/true));
}

size_t Trace::eventCount() {
  uint64_t Dropped;
  size_t N = 0;
  for (auto &[Tid, Evs] : snapshotAll(/*Reset=*/false, Dropped))
    N += Evs.size();
  return N;
}

uint64_t Trace::droppedEvents() {
  uint64_t Dropped;
  (void)snapshotAll(/*Reset=*/false, Dropped);
  return Dropped;
}

std::map<std::string, Trace::NameStat> Trace::summarize() {
  uint64_t Dropped;
  std::map<std::string, NameStat> Out;
  for (auto &[Tid, Evs] : snapshotAll(/*Reset=*/false, Dropped))
    for (auto &E : Evs) {
      NameStat &S = Out[E.Name];
      ++S.Count;
      S.TotalNs += E.EndNs - E.StartNs;
    }
  return Out;
}

} // namespace ac::support

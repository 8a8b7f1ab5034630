//===- Bench.h - Shared pieces of the acbench benchmark ---------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark binary (Main.cpp, Workloads.cpp)
/// and its self-tests: clocks and resource counters, the
/// percentile rule, the benchmark's own span recorder, the seeded input
/// generators of the three workloads, and answer snapshots.
///
/// Everything here sits outside the program under test: spans are
/// recorded around calls into each layer's public functions, never
/// inside them, and the program's own tracing stays off.
///
//===----------------------------------------------------------------------===//

#ifndef ACBENCH_BENCH_H
#define ACBENCH_BENCH_H

#include "service/Protocol.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace acbench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0);
/// User + system CPU seconds of the whole process (all threads).
double processCpuSeconds();
/// Peak resident set size of the process (ru_maxrss) in MiB.
double peakRssMb();

/// Nearest-rank percentile \p Q (0 < Q < 1) of \p V, reported only when
/// at least ten samples lie above it — a tail percentile resting on
/// fewer samples is noise, so the caller gets nothing instead.
std::optional<double> percentile(std::vector<double> V, double Q);
/// Plain median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

/// A fixed single-thread integer loop, timed. It does the same work on
/// every call, so its spread is the host's, not the program's.
double hostProbeMs();

/// SplitMix64: the benchmark's only randomness, so a seed pins every
/// input on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// Mixes a workload seed with a stream tag into a generator seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Tag);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans carry name, start, end and parent and
/// are written out once, as Chrome trace-event JSON, when the run ends.
/// Thread-safe; the parent is the innermost open span of the calling
/// thread. A disabled tracer records nothing.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    unsigned Tid = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  int begin(const std::string &Name);
  void end(int Id);

  /// Self time per span name in ms: each span minus its children.
  std::map<std::string, double> selfMs() const;
  bool writeChrome(const std::string &Path) const;

private:
  std::vector<Span> spans() const;

  bool Enabled;
  Clock::time_point T0 = Clock::now();
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// RAII span; also measures its own duration for the caller.
class Scoped {
public:
  Scoped(Tracer &T, const std::string &Name)
      : T(T), Id(T.begin(Name)), Start(Clock::now()) {}
  ~Scoped() { finish(); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

  /// Closes the span (once) and returns its duration in ms.
  double finish();

private:
  Tracer &T;
  int Id;
  Clock::time_point Start;
  double Ms = -1;
};

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// The cold workload's distinct programs: one per rung of a fixed ladder
/// of function counts across the Table 5 preset range. They are the same
/// for every seed, which draws only the order (coldOrder).
std::vector<std::string> coldPool();
/// Programs the traced layer walk sees for the first time (never part of
/// any workload's pool): one small, one middle and one large rung.
std::vector<std::string> walkPrograms(uint64_t Seed);
/// The order in which the cold loop checks the pool: seeded passes over
/// a fresh permutation each, \p N checks long.
std::vector<size_t> coldOrder(uint64_t Seed, size_t PoolSize, size_t N);

/// The translation unit the edit workload primes and then edits: the
/// CapDL-SysInit preset (Table 5: 163 functions, ~2k LoC). It is the
/// same for every seed, which draws only the edits: seeded units of
/// this size differed by up to 30% in re-check cost.
std::string editBase();

/// One function of a generated translation unit: its name and the byte
/// range of its whole definition (header line to closing brace).
struct FnExtent {
  std::string Name;
  size_t Begin = 0, End = 0;
};
std::vector<FnExtent> functionExtents(const std::string &Src);
/// \p Fn plus every function that calls it, directly or transitively.
std::set<std::string> withTransitiveCallers(const std::string &Src,
                                            const std::string &Fn);

/// One edit step: bumps one unsigned literal (`<digits>u`) inside one
/// function body by one and returns the edited function's name. Steps
/// apply on top of each other; the choice is drawn from \p R.
std::string applyEdit(std::string &Src, Rng &R);

/// The fleet's shard addresses. They are fixed because the router's
/// ring hashes shard addresses: with ephemeral ports each run would
/// split the pool differently between the shards.
const std::vector<std::string> &fleetShardAddrs();
constexpr size_t FleetPoolSize = 32;
/// The fleet's pool: FleetPoolSize small translation units that all
/// define the same three functions, fixed for every seed. When the pool
/// was drawn, the ring of fleetShardAddrs() sent its first half to shard 0
/// and its second half to shard 1.
std::vector<std::string> fleetPool();
/// Client \p Client's \p N pool indices (with repeats): even clients draw
/// from the first half of the pool and odd ones from the second, so while
/// the ring splits the pool as it did when the pool was drawn, each shard
/// serves two callers.
std::vector<size_t> fleetDraws(uint64_t Seed, unsigned Client, size_t N);

/// computeFunctionKeys of \p Src, set up as AutoCorres::run sets it up
/// (empty when the source does not translate).
std::map<std::string, uint64_t> functionKeys(const std::string &Src);

//===----------------------------------------------------------------------===//
// Answers
//===----------------------------------------------------------------------===//

/// Every user-visible byte of one function's answer.
std::string functionSnapshot(const ac::service::FuncResult &F);
/// Every user-visible byte of an answer: functions in order, then
/// diagnostics. Timing and cache counters are not part of it.
std::string snapshot(const ac::service::CheckResponse &R);
/// The tests/golden/*.expected format (tools/acc.cpp `--golden`).
std::string goldenSnapshot(const ac::service::CheckResponse &R);
uint64_t fnv1a(const std::string &S);

/// The five paper examples of tests/golden: name and C source.
std::vector<std::pair<std::string, std::string>> goldenExamples();
/// Reads tests/golden/<name>.expected under \p RepoDir ("" when missing).
std::string readGolden(const std::string &RepoDir, const std::string &Name);

} // namespace acbench

#endif // ACBENCH_BENCH_H

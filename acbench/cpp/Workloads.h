//===- Workloads.h - The cold and edit workloads, layer suite ---*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two closed-loop workloads and the traced per-layer suite, which
/// also starts an in-process fleet for the wire, router and remote cache
/// layers. Each workload first sets its system up (timed, while the
/// process is still fresh), then checks the five paper examples against
/// tests/golden, computes its references outside the timed loop, and
/// checks seeded inputs for the requested time, comparing every answer.
///
//===----------------------------------------------------------------------===//

#ifndef ACBENCH_WORKLOADS_H
#define ACBENCH_WORKLOADS_H

#include "Bench.h"

#include <map>
#include <string>
#include <vector>

namespace acbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  std::string RepoDir = ".";
  std::string OutDir = ".bench_out";
};

/// A timed loop stops once it has run for RunConfig::Seconds *and*
/// completed this many checks, so p90 always has ten samples beyond it;
/// it never runs longer than MaxLoopSeconds (or 4 x Seconds if longer).
constexpr size_t MinChecks = 100;
constexpr double MaxLoopSeconds = 90;
/// Set-ups per untraced run, each the first set-up of a fresh process:
/// this one and SetupReps - 1 children started for it (Main.cpp).
/// setup_s is their median, so one-time initialisation (rule
/// registration, the simpset, first interning) is in every sample.
constexpr unsigned SetupReps = 5;

struct LoopStats {
  std::vector<double> LatMs; ///< client-side latency of each check
  std::vector<double> ProbeMs;
  double WallS = 0; ///< loop start to last reply
  double CpuS = 0;  ///< process user+sys over the loop
  unsigned Attempted = 0, Failed = 0;
};

struct WorkloadResult {
  double SetupS = 0; ///< this process's set-up, the first thing it does
  double RefS = 0;   ///< reference computation, outside setup_s
  LoopStats Loop;
  unsigned GoldenChecked = 0;
  /// Golden, reference or sampled-recompute disagreements (answers that
  /// fail in the loop are counted in Loop.Failed instead).
  unsigned Mismatches = 0;
  std::vector<std::string> Errors; ///< first few failures, for the log
  std::map<std::string, double> Info; ///< workload-specific counters

  void fail(const std::string &What);
};

WorkloadResult runCold(const RunConfig &C, Tracer &T);
WorkloadResult runEdit(const RunConfig &C, Tracer &T);

/// One set-up of \p C.Workload in this process, timed and then torn down:
/// what a set-up child runs. Seconds to ready, or negative with \p Err set.
double setUpOnce(const RunConfig &C, std::string &Err);

/// The traced per-layer suite: every layer, each measured on the inputs
/// of the workload it belongs to. Returns metric name -> value.
std::map<std::string, double> runLayerSuite(const RunConfig &C, Tracer &T,
                                            std::vector<double> &Probes,
                                            std::vector<std::string> &Errors);

} // namespace acbench

#endif // ACBENCH_WORKLOADS_H

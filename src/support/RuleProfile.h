//===- RuleProfile.h - Per-rule firing and latency profile ------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry profiling the abstraction rule engines at the
/// granularity the paper reports them: per named rule ("WA.nat_plus.32",
/// "HL.read.node_C", ...), how many times it fired, how many times it was
/// tried and failed to match, and the cumulative *self* nanoseconds spent
/// deciding — time inside nested rule attempts is attributed to the
/// nested rule, not double-counted in the parent, via a thread-local
/// child-time stack carried by RuleTimer:
///
///   RuleTimer RT("WA.bind");        // or a lazy name-builder lambda
///   ...recursive attempts (their own RuleTimers)...
///   if (ok) RT.hit();               // otherwise it records a miss
///
/// Profiling is armed whenever tracing is (Trace enables it so the trace
/// export can embed the table) or programmatically (`acc
/// --rule-profile`). Disarmed, a RuleTimer is one relaxed atomic load —
/// dynamic rule names are built through the lambda constructor only when
/// armed, so the off path allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_RULEPROFILE_H
#define AC_SUPPORT_RULEPROFILE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace ac::support {

class RuleProfile {
public:
  struct Stat {
    uint64_t Fires = 0;
    uint64_t Misses = 0;
    uint64_t SelfNs = 0;
  };

  /// True iff rule attempts are being recorded.
  static bool enabled() { return Armed.load(std::memory_order_relaxed); }

  static void setEnabled(bool On);

  /// Forgets every recorded stat (preregistered names included).
  static void reset();

  /// Ensures \p Name appears in the table even with zero fires — used by
  /// the rule constructors and by drivers merging the axiom Inventory,
  /// so the dump covers the full rule set, not just the rules this
  /// input exercised. No-op when profiling is disarmed.
  static void preregister(const std::string &Name);

  /// A consistent copy of the table.
  static std::map<std::string, Stat> snapshot();

  /// The table as a sorted text report (descending self time), the
  /// `acc --rule-profile` / bench/rule_profile output.
  static std::string table();

  /// Implementation hook for RuleTimer.
  static void record(const std::string &Name, bool Fired, uint64_t SelfNs);

private:
  static std::atomic<bool> Armed;
};

/// RAII timer for one rule attempt. Destruction records hit()/miss and
/// the attempt's self time; total time is pushed into the enclosing
/// attempt's child-time accumulator so parents report self time only.
class RuleTimer {
public:
  explicit RuleTimer(const char *Name) : On(RuleProfile::enabled()) {
    if (On)
      begin(Name);
  }

  /// Lazy-name constructor: \p NameFn runs only when profiling is armed,
  /// so hot paths pay nothing to assemble per-width rule names.
  template <typename NameFn,
            typename = decltype(std::declval<NameFn>()())>
  explicit RuleTimer(NameFn &&F) : On(RuleProfile::enabled()) {
    if (On)
      begin(std::forward<NameFn>(F)());
  }

  RuleTimer(const RuleTimer &) = delete;
  RuleTimer &operator=(const RuleTimer &) = delete;

  /// Marks the attempt successful; without it the destructor records a
  /// failed match.
  void hit() { Fired = true; }

  ~RuleTimer() {
    if (On)
      end();
  }

private:
  void begin(std::string N);
  void end();

  bool On;
  bool Fired = false;
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t SavedChildNs = 0;
};

} // namespace ac::support

#endif // AC_SUPPORT_RULEPROFILE_H

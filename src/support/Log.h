//===- Log.h - Structured JSONL event log -----------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one logging surface: newline-delimited JSON events with
/// a level, an event name, and free-form fields, replacing the ad-hoc
/// fprintf(stderr, ...) calls that used to live in the server and cache.
/// One line per event, machine-parseable, written atomically under a
/// mutex:
///
///   {"ts":1717171717.123,"level":"warn","event":"cache.entry_dropped",
///    "path":"/x/cache.acc","reason":"crc"}
///
/// The sink defaults to stderr (stdout stays reserved for specs and
/// other tool output) and can be redirected with `--log-file`. The
/// minimum level defaults to info and is set with the daemons'
/// `--log-level debug|info|warn|error|off`. Level filtering is one
/// relaxed atomic load; field Json is only assembled for events that
/// pass.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_LOG_H
#define AC_SUPPORT_LOG_H

#include "support/Json.h"

#include <atomic>
#include <initializer_list>
#include <string>
#include <utility>

namespace ac::support {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

class Log {
public:
  /// True iff an event at \p L would be written.
  static bool on(LogLevel L) {
    return static_cast<int>(L) >= MinLevel.load(std::memory_order_relaxed);
  }

  static void setLevel(LogLevel L);

  /// Parses "debug"/"info"/"warn"/"error"/"off"; returns false (level
  /// unchanged) on anything else.
  static bool parseLevel(const std::string &Name, LogLevel &Out);

  /// Redirects the sink to \p Path (append mode); "" restores stderr.
  /// Returns false and keeps the current sink if the file can't open.
  static bool setFile(const std::string &Path);

  /// Emits one JSONL event with key/value fields.
  static void write(LogLevel L, const char *Event,
                    std::initializer_list<std::pair<const char *, Json>>
                        Fields = {});

  static void debug(const char *Event,
                    std::initializer_list<std::pair<const char *, Json>>
                        Fields = {}) {
    if (on(LogLevel::Debug))
      write(LogLevel::Debug, Event, Fields);
  }
  static void info(const char *Event,
                   std::initializer_list<std::pair<const char *, Json>>
                       Fields = {}) {
    if (on(LogLevel::Info))
      write(LogLevel::Info, Event, Fields);
  }
  static void warn(const char *Event,
                   std::initializer_list<std::pair<const char *, Json>>
                       Fields = {}) {
    if (on(LogLevel::Warn))
      write(LogLevel::Warn, Event, Fields);
  }
  static void error(const char *Event,
                    std::initializer_list<std::pair<const char *, Json>>
                        Fields = {}) {
    if (on(LogLevel::Error))
      write(LogLevel::Error, Event, Fields);
  }

private:
  static std::atomic<int> MinLevel;
};

} // namespace ac::support

#endif // AC_SUPPORT_LOG_H

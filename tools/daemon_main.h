//===- daemon_main.h - Flags and shutdown wait of the daemons ---*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the mains of acd, acrouter and accached share: one parser for the
/// flags every daemon takes (--socket, --listen, --auth-token-file,
/// --trace, --log-file, --log-level, --help), value readers for each
/// tool's own flags (parseNum also reads acc's and actop's numbers), and
/// the wait that parks the main thread until SIGTERM, SIGINT or a
/// `drain` request.
///
//===----------------------------------------------------------------------===//

#ifndef AC_TOOLS_DAEMON_MAIN_H
#define AC_TOOLS_DAEMON_MAIN_H

#include "service/FrameServer.h"
#include "service/Protocol.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

namespace ac::tools {

/// Parses \p V as a decimal in [\p Min, \p Max], never above 2^20, into
/// \p Field. False, leaving \p Field alone, unless \p V is all digits
/// and in range.
template <typename T>
bool parseNum(const char *V, T &Field, unsigned Min = 0,
              unsigned Max = 1u << 20) {
  if (!V || *V < '0' || *V > '9')
    return false; // empty, signed or space-led
  char *End = nullptr;
  unsigned long N = std::strtoul(V, &End, 10);
  if (*End || N > (1u << 20) || N < Min || N > Max)
    return false;
  Field = static_cast<T>(N);
  return true;
}

/// What a tool's own flag handler made of one argument.
enum class Flag {
  Taken,   ///< consumed, with its value if it has one
  Unknown, ///< not this tool's flag, or a bad number: "bad argument"
  Usage,   ///< a flag whose value is missing: usage
  Failed,  ///< already reported on stderr
};

/// The flag loop of one daemon's main.
class DaemonFlags {
public:
  DaemonFlags(const char *Tool, void (*Usage)(const char *), int Argc,
              char **Argv)
      : Tool(Tool), Usage(Usage), Argc(Argc), Argv(Argv) {}

  /// Parses every argument: the shared flags into \p Opts, any other one
  /// through \p Own(Arg), which reads values with str(), num() and
  /// token(). Returns main's exit status when parsing must stop there, or
  /// -1 once every argument parsed.
  template <typename OwnFlagFn>
  int parse(service::ListenOptions &Opts, OwnFlagFn Own) {
    for (I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      Flag F = Flag::Taken;
      if (Arg == "--socket") {
        F = str(Opts.SocketPath);
      } else if (Arg == "--listen") {
        F = str(Opts.ListenAddr);
      } else if (Arg == "--auth-token-file") {
        F = token(Opts.AuthToken, "auth");
      } else if (Arg == "--trace") {
        Opts.TraceLive = true;
      } else if (Arg == "--log-file") {
        const char *V = next();
        if (!V || !support::Log::setFile(V)) {
          std::fprintf(stderr, "%s: cannot open log file\n", Tool);
          F = Flag::Failed;
        }
      } else if (Arg == "--log-level") {
        const char *V = next();
        support::LogLevel Lv = support::LogLevel::Info;
        if (V && support::Log::parseLevel(V, Lv))
          support::Log::setLevel(Lv);
        else
          F = Flag::Usage;
      } else if (Arg == "--help" || Arg == "-h") {
        Usage(Argv[0]);
        return 0;
      } else {
        F = Own(Arg);
      }
      if (F == Flag::Taken)
        continue;
      if (F == Flag::Unknown)
        std::fprintf(stderr, "%s: bad argument `%s`\n", Tool, Arg.c_str());
      if (F != Flag::Failed)
        Usage(Argv[0]);
      return 2;
    }
    return -1;
  }

  /// Stores the current flag's value in \p Field.
  Flag str(std::string &Field) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    Field = V;
    return Flag::Taken;
  }

  /// Stores the current flag's decimal value, which must lie in
  /// [\p Min, \p Max] and never above 2^20.
  template <typename T> Flag num(T &Field, unsigned Min = 0,
                                 unsigned Max = 1u << 20) {
    return parseNum(next(), Field, Min, Max) ? Flag::Taken : Flag::Unknown;
  }

  /// Reads the token file the current flag names into \p Field; \p What
  /// names the token in the error line.
  Flag token(std::string &Field, const char *What) {
    const char *V = next();
    if (V && service::readTokenFile(V, Field))
      return Flag::Taken;
    std::fprintf(stderr, "%s: cannot read %s token file\n", Tool, What);
    return Flag::Failed;
  }

private:
  const char *next() { return I + 1 < Argc ? Argv[++I] : nullptr; }

  const char *Tool;
  void (*Usage)(const char *);
  int Argc;
  char **Argv;
  int I = 1;
};

/// SIGTERM and SIGINT, blocked from construction on in this thread and in
/// every thread it spawns later, so neither kills a daemon mid-request;
/// wait() collects them instead.
class ShutdownSignals {
public:
  ShutdownSignals() {
    sigemptyset(&Sigs);
    sigaddset(&Sigs, SIGTERM);
    sigaddset(&Sigs, SIGINT);
    pthread_sigmask(SIG_BLOCK, &Sigs, nullptr);
  }

  /// Returns once SIGTERM or SIGINT arrives or \p Daemon is draining (a
  /// `drain` request), checking every 200 ms.
  template <typename DaemonT> void wait(const DaemonT &Daemon) const {
    timespec Tick{0, 200 * 1000 * 1000};
    while (!Daemon.draining()) {
      int Sig = sigtimedwait(&Sigs, nullptr, &Tick);
      if (Sig == SIGTERM || Sig == SIGINT)
        return;
    }
  }

private:
  sigset_t Sigs;
};

} // namespace ac::tools

#endif // AC_TOOLS_DAEMON_MAIN_H

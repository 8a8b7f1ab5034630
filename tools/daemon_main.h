//===- daemon_main.h - Flags and shutdown wait of the daemons ---*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the mains of acd, acrouter and accached share: the flags every
/// daemon takes (--socket, --listen, --auth-token-file, --trace,
/// --log-file, --log-level, --help), read through flags.h with the
/// readers that need the service library (token files, the log file),
/// and the wait that parks the main thread until SIGTERM, SIGINT or a
/// `drain` request. acc, actop and actrace read their own flags through
/// the same class for its token and log-file readers.
///
//===----------------------------------------------------------------------===//

#ifndef AC_TOOLS_DAEMON_MAIN_H
#define AC_TOOLS_DAEMON_MAIN_H

#include "flags.h"
#include "service/FrameServer.h"
#include "service/Protocol.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>

namespace ac::tools {

/// Flags with the service-side value readers, and the loop of one
/// daemon's main.
class DaemonFlags : public Flags {
public:
  using Flags::Flags;
  using Flags::parse;

  /// Parses every argument: the shared flags into \p Opts, any other one
  /// through \p Own(Arg), as Flags::parse does.
  template <typename OwnFlagFn>
  int parse(service::ListenOptions &Opts, OwnFlagFn Own) {
    return parse([&](const std::string &Arg) {
      if (Arg == "--socket")
        return str(Opts.SocketPath);
      if (Arg == "--listen")
        return str(Opts.ListenAddr);
      if (Arg == "--auth-token-file")
        return token(Opts.AuthToken, "auth");
      if (Arg == "--trace")
        return set(Opts.TraceLive);
      if (Arg == "--log-file")
        return logFile();
      if (Arg == "--log-level") {
        const char *V = next();
        support::LogLevel Lv = support::LogLevel::Info;
        if (!V || !support::Log::parseLevel(V, Lv))
          return Flag::Usage;
        support::Log::setLevel(Lv);
        return Flag::Taken;
      }
      return Own(Arg);
    });
  }

  /// Reads the token file the current flag names into \p Field; \p What
  /// names the token in the error line.
  Flag token(std::string &Field, const char *What) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    if (service::readTokenFile(V, Field))
      return Flag::Taken;
    std::fprintf(stderr, "%s: cannot read %s token file\n", Tool, What);
    return Flag::Failed;
  }

  /// Sends the structured log to the file the current flag names.
  Flag logFile() {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    if (support::Log::setFile(V))
      return Flag::Taken;
    std::fprintf(stderr, "%s: cannot open log file\n", Tool);
    return Flag::Failed;
  }
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

//===- Log.cpp - Structured JSONL event log -------------------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace ac::support {

std::atomic<int> Log::MinLevel{static_cast<int>(LogLevel::Info)};

namespace {

const char *levelName(LogLevel L) {
  switch (L) {
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  case LogLevel::Off:
    return "off";
  }
  return "?";
}

struct Sink {
  std::mutex M;
  FILE *F = stderr;
  bool Owned = false;
};

Sink &sink() {
  static Sink S;
  return S;
}

} // namespace

void Log::setLevel(LogLevel L) {
  MinLevel.store(static_cast<int>(L), std::memory_order_relaxed);
}

bool Log::parseLevel(const std::string &Name, LogLevel &Out) {
  if (Name == "debug")
    Out = LogLevel::Debug;
  else if (Name == "info")
    Out = LogLevel::Info;
  else if (Name == "warn")
    Out = LogLevel::Warn;
  else if (Name == "error")
    Out = LogLevel::Error;
  else if (Name == "off")
    Out = LogLevel::Off;
  else
    return false;
  return true;
}

bool Log::setFile(const std::string &Path) {
  Sink &S = sink();
  std::lock_guard<std::mutex> L(S.M);
  if (Path.empty()) {
    if (S.Owned)
      fclose(S.F);
    S.F = stderr;
    S.Owned = false;
    return true;
  }
  FILE *F = fopen(Path.c_str(), "a");
  if (!F)
    return false;
  if (S.Owned)
    fclose(S.F);
  S.F = F;
  S.Owned = true;
  return true;
}

void Log::write(LogLevel L, const char *Event,
                std::initializer_list<std::pair<const char *, Json>> Fields) {
  if (!on(L))
    return;
  double Ts = std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
  Json Line = Json::object();
  Line.set("ts", Ts);
  Line.set("level", levelName(L));
  Line.set("event", Event);
  for (const auto &[K, V] : Fields)
    Line.set(K, V);
  std::string Text = Line.dump();
  Sink &S = sink();
  std::lock_guard<std::mutex> Lk(S.M);
  fwrite(Text.data(), 1, Text.size(), S.F);
  fputc('\n', S.F);
  fflush(S.F);
}

} // namespace ac::support

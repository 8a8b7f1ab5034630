//===- flags.h - The command-line reader of every tool ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How every tool reads its argv: one loop (Flags::parse) that hands each
/// argument to the tool's own handler, readers for a flag's value (a
/// string, a count, a decimal), and one rule for what goes wrong. A
/// number is digits only (no sign, space or exponent) and must lie in
/// its flag's range; a bad one, like an unknown flag, is a "bad
/// argument" and exit 2. A flag with no value after it prints the usage
/// and exits 2. Only the standard library is included, so acpc,
/// which links nothing from src/, reads its flags here too.
///
//===----------------------------------------------------------------------===//

#ifndef AC_TOOLS_FLAGS_H
#define AC_TOOLS_FLAGS_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ac::tools {

/// Parses \p V as a decimal in [\p Min, \p Max] into \p Field. False,
/// leaving \p Field alone, unless \p V is all digits and in range.
template <typename T>
bool parseNum(const char *V, T &Field, uint64_t Min = 0,
              uint64_t Max = 1u << 20) {
  if (!V || !*V)
    return false;
  uint64_t N = 0;
  for (const char *P = V; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false; // signed, space-led or not a number
    unsigned D = *P - '0';
    if (N > (UINT64_MAX - D) / 10)
      return false;
    N = N * 10 + D;
  }
  if (N < Min || N > Max)
    return false;
  Field = static_cast<T>(N);
  return true;
}

/// Parses \p V as a plain decimal (digits with at most one '.') into
/// \p Field. False, leaving \p Field alone, for anything else.
inline bool parseDecimal(const char *V, double &Field) {
  if (!V)
    return false;
  bool Digit = false, Dot = false;
  for (const char *P = V; *P; ++P) {
    if (*P >= '0' && *P <= '9')
      Digit = true;
    else if (*P == '.' && !Dot)
      Dot = true;
    else
      return false;
  }
  if (!Digit)
    return false;
  Field = std::strtod(V, nullptr);
  return true;
}

/// What a tool's handler made of one argument.
enum class Flag {
  Taken,   ///< consumed, with its value if it has one
  Unknown, ///< not this tool's flag, or a bad number: "bad argument"
  Usage,   ///< a flag whose value is missing: usage
  Failed,  ///< already reported on stderr
};

/// The argument loop of one tool's main.
class Flags {
public:
  Flags(const char *Tool, void (*Usage)(const char *), int Argc, char **Argv)
      : Tool(Tool), Usage(Usage), Argc(Argc), Argv(Argv) {}

  /// Hands every argument to \p Own(Arg), which reads a flag's value with
  /// set(), str(), add(), num() or decimal() and takes positional
  /// arguments itself. An argument it leaves Unknown is `--help`/`-h`
  /// (usage, exit 0) or a bad argument (exit 2). Returns main's exit
  /// status when parsing must stop there, or -1 once every argument
  /// parsed.
  template <typename OwnFlagFn> int parse(OwnFlagFn Own) {
    for (I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      Flag F = Own(Arg);
      if (F == Flag::Taken)
        continue;
      if (F == Flag::Unknown && (Arg == "--help" || Arg == "-h")) {
        Usage(Argv[0]);
        return 0;
      }
      if (F == Flag::Unknown)
        std::fprintf(stderr, "%s: bad argument `%s`\n", Tool, Arg.c_str());
      if (F != Flag::Failed)
        Usage(Argv[0]);
      return 2;
    }
    return -1;
  }

  /// Sets \p Field for a flag that takes no value.
  static Flag set(bool &Field) {
    Field = true;
    return Flag::Taken;
  }

  /// Stores the current flag's value in \p Field.
  Flag str(std::string &Field) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    Field = V;
    return Flag::Taken;
  }

  /// Appends the current flag's value to \p List (a repeatable flag).
  Flag add(std::vector<std::string> &List) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    List.push_back(V);
    return Flag::Taken;
  }

  /// Stores the current flag's decimal value, which must lie in
  /// [\p Min, \p Max].
  template <typename T>
  Flag num(T &Field, uint64_t Min = 0, uint64_t Max = 1u << 20) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    return parseNum(V, Field, Min, Max) ? Flag::Taken : Flag::Unknown;
  }

  /// Stores the current flag's value, a plain decimal, in \p Field.
  Flag decimal(double &Field) {
    const char *V = next();
    if (!V)
      return Flag::Usage;
    return parseDecimal(V, Field) ? Flag::Taken : Flag::Unknown;
  }

protected:
  /// The current flag's value, or null when it is the last argument.
  const char *next() { return I + 1 < Argc ? Argv[++I] : nullptr; }

  const char *Tool;

private:
  void (*Usage)(const char *);
  int Argc;
  char **Argv;
  int I = 1;
};

} // namespace ac::tools

#endif // AC_TOOLS_FLAGS_H

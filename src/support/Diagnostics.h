//===- Diagnostics.h - Source locations and error reporting ----*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations and a small diagnostic engine used by the C parser and
/// the translation pipeline. The library never throws; fatal conditions in
/// user input are recorded here and surfaced to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_DIAGNOSTICS_H
#define AC_SUPPORT_DIAGNOSTICS_H

#include <cassert>
#include <string>
#include <vector>

namespace ac {

/// A position in a source buffer (1-based line/column).
struct SourceLoc {
  unsigned Line = 0;
  unsigned Col = 0;

  bool isValid() const { return Line != 0; }
  std::string str() const;
};

/// Severity of a reported diagnostic.
enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic.
struct Diagnostic {
  DiagKind Kind;
  SourceLoc Loc;
  std::string Message;

  std::string str() const;
};

/// Collects diagnostics during parsing / translation.
///
/// All front-end entry points accept a DiagEngine; a failed operation
/// returns a null/empty result and leaves at least one error here.
class DiagEngine {
public:
  void error(SourceLoc Loc, const std::string &Msg) {
    Diags.push_back({DiagKind::Error, Loc, Msg});
    ++NumErrors;
  }
  void warning(SourceLoc Loc, const std::string &Msg) {
    Diags.push_back({DiagKind::Warning, Loc, Msg});
  }
  void note(SourceLoc Loc, const std::string &Msg) {
    Diags.push_back({DiagKind::Note, Loc, Msg});
  }

  /// Appends every diagnostic of \p Other. The parallel pipeline gives
  /// each worker task its own engine and merges them in source order, so
  /// the combined stream is schedule-independent.
  void merge(const DiagEngine &Other) {
    Diags.insert(Diags.end(), Other.Diags.begin(), Other.Diags.end());
    NumErrors += Other.NumErrors;
  }

  bool hasErrors() const { return NumErrors != 0; }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders every diagnostic, one per line.
  std::string str() const;

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace ac

#endif // AC_SUPPORT_DIAGNOSTICS_H

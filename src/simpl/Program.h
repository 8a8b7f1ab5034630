//===- Program.h - Translated Simpl programs --------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of running the C-to-Simpl parser stage over a translation
/// unit: one Simpl body per function, the generated state records (a
/// globals record holding the byte heap and C globals, plus a per-function
/// record adding locals and the `global_exn_var` ghost), and the C-to-HOL
/// type mapping used throughout the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SIMPL_PROGRAM_H
#define AC_SIMPL_PROGRAM_H

#include "cparser/AST.h"
#include "hol/Builder.h"
#include "hol/Record.h"
#include "simpl/CallGraph.h"
#include "simpl/Simpl.h"

#include <map>
#include <memory>

namespace ac::simpl {

/// Name of the per-program globals record.
inline const char *globalsRecName() { return "globals"; }
/// The byte-heap field inside the globals record (the paper's heap').
inline const char *heapFieldName() { return "heap'"; }
/// The abrupt-termination reason ghost field.
inline const char *exnVarName() { return "global_exn_var"; }
/// The return-value local.
inline const char *retVarName() { return "ret"; }

/// The ghost exception-reason type and its three constants.
hol::TypeRef cExnTy();
hol::TermRef exnReturn();
hol::TermRef exnBreak();
hol::TermRef exnContinue();

/// Maps C types to HOL types. Struct types become nominal records named
/// `<name>_C` (registered in the record registry on first use).
class TypeMapper {
public:
  TypeMapper(hol::RecordRegistry &Records, const cparser::LayoutMap &Layout)
      : Records(Records), Layout(Layout) {}

  hol::TypeRef holType(const cparser::CTypeRef &T);

  static std::string structRecName(const std::string &CName) {
    return CName + "_C";
  }

private:
  hol::RecordRegistry &Records;
  const cparser::LayoutMap &Layout;
};

/// One translated function. The declaration pass fills in everything
/// but Body; the body pass translates Body.
struct SimplFunc {
  std::string Name;
  /// The definition in Prog.TU this function was translated from.
  const cparser::FuncDecl *Decl = nullptr;
  std::vector<std::pair<std::string, hol::TypeRef>> Params;
  hol::TypeRef RetTy; ///< null for void
  /// All locals (excluding params), including `ret` when non-void.
  std::vector<std::pair<std::string, hol::TypeRef>> Locals;
  std::string StateRecName;
  hol::TypeRef StateTy;
  /// Null until the body pass has run for this function.
  SimplStmtPtr Body;
  bool IsRecursive = false;
};

/// A whole translated program.
struct SimplProgram {
  std::unique_ptr<cparser::TranslationUnit> TU;
  hol::RecordRegistry Records;
  hol::TypeRef GlobalsTy;
  std::map<std::string, SimplFunc> Functions;
  std::vector<std::string> FunctionOrder;
  /// Heap pointee HOL types the program reads or writes (drives the
  /// split-heap record generation of Sec 4.4), in the order the bodies
  /// first access them.
  std::vector<hol::TypeRef> HeapTypes;
  /// Who calls whom, over FunctionOrder indices.
  CallGraph Calls;

  const SimplFunc *function(const std::string &Name) const {
    auto It = Functions.find(Name);
    return It == Functions.end() ? nullptr : &It->second;
  }

  const cparser::LayoutMap &layout() const { return TU->Layout; }
};

/// The declaration pass: everything program-wide a function body's
/// translation reads, computed from the typed AST without translating any
/// body — the globals record, every struct and `<f>_state` record, all
/// signatures and locals, the heap types, and the call graph (which sets
/// IsRecursive). It also reports every error the body pass could hit, so
/// a program it accepts translates. Returns nullptr with diagnostics on
/// failure.
std::unique_ptr<SimplProgram>
translateDeclarations(std::unique_ptr<cparser::TranslationUnit> TU,
                      DiagEngine &Diags);

/// The body pass for FunctionOrder[\p Idx] of a program the declaration
/// pass accepted. Reads the program-wide state and changes none of it, so
/// bodies may be translated in any order, or only some of them.
void translateBody(SimplProgram &Prog, size_t Idx);

/// Runs the parser stage: the declaration pass, then every body.
/// Returns nullptr with diagnostics on failure.
std::unique_ptr<SimplProgram>
translateToSimpl(std::unique_ptr<cparser::TranslationUnit> TU,
                 DiagEngine &Diags);

/// Convenience: parse + check + translate in one call.
std::unique_ptr<SimplProgram> parseAndTranslate(const std::string &Source,
                                                DiagEngine &Diags);

/// Parse + check + the declaration pass: no body is translated.
std::unique_ptr<SimplProgram> parseAndDeclare(const std::string &Source,
                                              DiagEngine &Diags);

} // namespace ac::simpl

#endif // AC_SIMPL_PROGRAM_H

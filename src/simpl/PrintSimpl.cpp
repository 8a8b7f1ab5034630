//===- PrintSimpl.cpp -----------------------------------------------------===//

#include "simpl/PrintSimpl.h"

#include "hol/Print.h"

#include <sstream>

using namespace ac;
using namespace ac::simpl;
using namespace ac::hol;

namespace {

/// If the update is `%s. upd:R.f (%_. V) s`, returns (f, V with the state
/// variable shown as the free variable `s`).
bool matchFieldAssign(const TermRef &Upd, std::string &Field,
                      TermRef &Value) {
  if (!Upd->isLam())
    return false;
  TermRef SFree = Term::mkFree("s", Upd->type());
  TermRef Body = substBound(Upd->body(), SFree);
  // Body: App(App(upd:R.f, Lam(_, V)), s)
  if (!Body->isApp() || !termEq(Body->argTerm(), SFree))
    return false;
  const TermRef &Inner = Body->fun();
  if (!Inner->isApp())
    return false;
  const TermRef &Head = Inner->fun();
  if (!Head->isConst() || Head->name().rfind("upd:", 0) != 0)
    return false;
  const TermRef &Fn = Inner->argTerm();
  if (!Fn->isLam() || Fn->body()->maxLoose() != 0)
    return false; // constant update functions only
  Field = Head->name().substr(Head->name().rfind('.') + 1);
  Value = Fn->body();
  return true;
}

class SimplPrinter {
public:
  explicit SimplPrinter(unsigned Width) { Opts.Width = Width; }

  std::string print(const SimplStmtPtr &S, unsigned Indent) {
    std::string Pad(Indent, ' ');
    switch (S->kind()) {
    case SimplStmt::Kind::Skip:
      return Pad + "SKIP";
    case SimplStmt::Kind::Basic: {
      std::string Field;
      TermRef Value;
      if (matchFieldAssign(S->Upd, Field, Value))
        return Pad + "´" + Field + " :== " + printTerm(Value, Opts);
      return Pad + "Basic (" + printTerm(S->Upd, Opts) + ")";
    }
    case SimplStmt::Kind::Seq:
      return print(S->A, Indent) + ";;\n" + print(S->B, Indent);
    case SimplStmt::Kind::Cond: {
      std::string Out = Pad + "IF {|" + condStr(S->Cond) + "|} THEN\n";
      Out += print(S->A, Indent + 2) + "\n";
      Out += Pad + "ELSE\n";
      Out += print(S->B, Indent + 2) + "\n";
      Out += Pad + "FI";
      return Out;
    }
    case SimplStmt::Kind::While: {
      std::string Out = Pad + "WHILE {|" + condStr(S->Cond) + "|} DO\n";
      Out += print(S->A, Indent + 2) + "\n";
      Out += Pad + "OD";
      return Out;
    }
    case SimplStmt::Kind::Guard:
      return Pad + "GUARD " + guardKindName(S->GK) + " {|" +
             condStr(S->Cond) + "|}";
    case SimplStmt::Kind::Throw:
      return Pad + "THROW";
    case SimplStmt::Kind::TryCatch: {
      std::string Out = Pad + "TRY\n";
      Out += print(S->A, Indent + 2) + "\n";
      Out += Pad + "CATCH\n";
      Out += print(S->B, Indent + 2) + "\n";
      Out += Pad + "END";
      return Out;
    }
    case SimplStmt::Kind::Call: {
      std::string Out = Pad + "CALL " + S->Callee + "(";
      for (size_t I = 0; I != S->Args.size(); ++I) {
        if (I)
          Out += ", ";
        Out += printTerm(S->Args[I]->isLam() ? S->Args[I]->body()
                                             : S->Args[I],
                         Opts);
      }
      Out += ")";
      if (S->ResultStore)
        Out += " INTO " + printTerm(S->ResultStore, Opts);
      return Out;
    }
    }
    return Pad + "?";
  }

private:
  PrintOpts Opts;

  /// Conditions are `%s. b`; show just the body, Fig 2 style.
  std::string condStr(const TermRef &C) {
    if (C->isLam())
      return printTerm(C->body(), Opts);
    return printTerm(C, Opts);
  }
};

} // namespace

std::string ac::simpl::printSimplFunc(const SimplFunc &F) {
  std::ostringstream OS;
  OS << F.Name << "_body ==\n";
  SimplPrinter P(80);
  OS << P.print(F.Body, 2);
  return OS.str();
}

unsigned ac::simpl::simplSpecLines(const SimplFunc &F) {
  std::string S = printSimplFunc(F);
  unsigned N = 1;
  for (char C : S)
    if (C == '\n')
      ++N;
  return N;
}

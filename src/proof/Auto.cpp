//===- Auto.cpp -----------------------------------------------------------===//

#include "proof/Auto.h"

#include "hol/GroundEval.h"
#include "hol/Names.h"

#include <map>

using namespace ac;
using namespace ac::proof;
using namespace ac::hol;
namespace nm = ac::hol::names;

//===----------------------------------------------------------------------===//
// Linear arithmetic (Fourier-Motzkin with integer tightening)
//===----------------------------------------------------------------------===//

namespace {

using Int = Int128;

/// A linear combination sum(Coeff[v] * atom_v) + Const.
struct Lin {
  std::map<unsigned, Int> Coeff;
  Int Const = 0;

  Lin operator+(const Lin &O) const {
    Lin R = *this;
    for (auto &[V, C] : O.Coeff) {
      R.Coeff[V] += C;
      if (R.Coeff[V] == 0)
        R.Coeff.erase(V);
    }
    R.Const += O.Const;
    return R;
  }
  Lin scaled(Int K) const {
    Lin R;
    if (K == 0)
      return R;
    for (auto &[V, C] : Coeff)
      R.Coeff[V] = C * K;
    R.Const = Const * K;
    return R;
  }
  Lin operator-(const Lin &O) const { return *this + O.scaled(-1); }
  bool isConst() const { return Coeff.empty(); }
};

/// Atom table: opaque numeric terms get variable ids.
class Atoms {
public:
  unsigned idOf(const TermRef &T) {
    for (size_t I = 0; I != Terms.size(); ++I)
      if (termEq(Terms[I], T))
        return I;
    Terms.push_back(T);
    return Terms.size() - 1;
  }
  const TermRef &term(unsigned I) const { return Terms[I]; }
  size_t size() const { return Terms.size(); }

private:
  std::vector<TermRef> Terms;
};

Int gcdI(Int A, Int B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B) {
    Int T = A % B;
    A = B;
    B = T;
  }
  return A;
}

Int floorDiv(Int A, Int B) {
  assert(B > 0);
  Int Q = A / B;
  if (A % B != 0 && A < 0)
    --Q;
  return Q;
}

/// The solver: constraints are `L <= 0`.
class LinArith {
public:
  /// Adds constraints from a boolean hypothesis; unparseable parts are
  /// ignored (sound: fewer facts).
  void addHyp(const TermRef &H, bool Negated = false);

  /// True if the constraint set is unsatisfiable over the integers
  /// (approximated by FM + tightening; sound for unsat).
  bool unsat();

private:
  Atoms AtomTab;
  std::vector<Lin> Rows; ///< each row: expr <= 0
  std::vector<TermRef> PendingAux;
  unsigned AuxVars = 0;
  bool Broken = false;

  std::optional<Lin> parse(const TermRef &T);
  void addRow(Lin L) { Rows.push_back(std::move(L)); }
  void addAtomBounds(unsigned Var, const TermRef &T);
};

std::optional<Lin> LinArith::parse(const TermRef &T) {
  if (T->isNum()) {
    Lin L;
    L.Const = T->value();
    return L;
  }
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  // Unary minus over ideal int is linear.
  if (Head->isConst(nm::UMinus) && Args.size() == 1 &&
      typeOf(Args[0])->isCon("int")) {
    if (auto A = parse(Args[0]))
      return A->scaled(-1);
    return std::nullopt;
  }
  if (Head->isConst() && Args.size() == 2) {
    const std::string &N = Head->name();
    TypeRef Ty = typeOf(Args[0]);
    bool Ideal = Ty->isCon("nat") || Ty->isCon("int");
    if (Ideal && (N == nm::Plus || N == nm::Minus || N == nm::Times ||
                  N == nm::Div || N == nm::Mod)) {
      if (N == nm::Plus || N == nm::Minus) {
        auto A = parse(Args[0]);
        auto B = parse(Args[1]);
        if (!A || !B)
          return std::nullopt;
        if (N == nm::Plus)
          return *A + *B;
        // nat subtraction truncates: a - b is only linear when b <= a,
        // which we cannot assume. Treat nat-minus as an opaque atom with
        // bounds 0 <= (a - b) and (a - b) has no upper relation... be
        // conservative: opaque atom.
        if (Ty->isCon("nat")) {
          unsigned V = AtomTab.idOf(T);
          addAtomBounds(V, T);
          Lin L;
          L.Coeff[V] = 1;
          return L;
        }
        return *A - *B;
      }
      if (N == nm::Times) {
        auto A = parse(Args[0]);
        auto B = parse(Args[1]);
        if (A && A->isConst() && B)
          return B->scaled(A->Const);
        if (B && B->isConst() && A)
          return A->scaled(B->Const);
        // Nonlinear: opaque.
      }
      if (N == nm::Div && Args[1]->isNum() && Args[1]->value() > 0) {
        // q := a div k with k*q <= a <= k*q + (k-1) (exact for nat/int
        // with floor semantics; C-trunc int div of negatives is rarer —
        // restrict to nat to stay sound).
        if (Ty->isCon("nat")) {
          auto A = parse(Args[0]);
          if (A) {
            unsigned V = AtomTab.idOf(T);
            addAtomBounds(V, T);
            Lin Q;
            Q.Coeff[V] = 1;
            Int K = Args[1]->value();
            // k*q - a <= 0.
            addRow(Q.scaled(K) - *A);
            // a - k*q - (k-1) <= 0.
            Lin R = *A - Q.scaled(K);
            R.Const -= (K - 1);
            addRow(R);
            return Q;
          }
        }
      }
      if (N == nm::Mod && Args[1]->isNum() && Args[1]->value() > 0 &&
          Ty->isCon("nat")) {
        // r := a mod k with 0 <= r <= k-1.
        unsigned V = AtomTab.idOf(T);
        Lin R;
        R.Coeff[V] = 1;
        // r - (k-1) <= 0.
        Lin Up = R;
        Up.Const -= (Args[1]->value() - 1);
        addRow(Up);
        // -r <= 0.
        addRow(R.scaled(-1));
        // Exact decomposition a = k*(a div k) + (a mod k): route the
        // matching div through parse() (which adds its own bounds) and
        // link the two atoms.
        if (auto A = parse(Args[0])) {
          if (auto Q = parse(mkDiv(Args[0], Args[1]))) {
            Lin Zero = *A - Q->scaled(Args[1]->value()) - R;
            addRow(Zero);
            addRow(Zero.scaled(-1));
          }
        }
        return R;
      }
    }
  }
  // int coercion of a nat atom keeps the value.
  if (Head->isConst(nm::IntOfNat) && Args.size() == 1)
    return parse(Args[0]);
  // Opaque atom.
  TypeRef Ty = typeOf(T);
  if (!Ty->isCon("nat") && !Ty->isCon("int"))
    return std::nullopt;
  unsigned V = AtomTab.idOf(T);
  addAtomBounds(V, T);
  Lin L;
  L.Coeff[V] = 1;
  return L;
}

void LinArith::addAtomBounds(unsigned Var, const TermRef &T) {
  TypeRef Ty = typeOf(T);
  if (Ty->isCon("nat")) {
    Lin L;
    L.Coeff[Var] = -1; // -x <= 0.
    addRow(L);
  }
  // Squares are non-negative even over int (the one nonlinear fact FM
  // can use as a bound).
  {
    std::vector<TermRef> SqArgs;
    TermRef SqHead = stripApp(T, SqArgs);
    if (SqHead->isConst(nm::Times) && SqArgs.size() == 2 &&
        termEq(SqArgs[0], SqArgs[1]) && Ty->isCon("int")) {
      Lin L;
      L.Coeff[Var] = -1;
      addRow(L);
    }
  }
  // unat/sint images carry their machine ranges.
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (Head->isConst(nm::Unat) && Args.size() == 1) {
    unsigned W = wordBits(typeOf(Args[0]));
    Lin L;
    L.Coeff[Var] = 1;
    L.Const = -wordMaxVal(W); // x - max <= 0.
    addRow(L);
  }
  if (Head->isConst(nm::Sint) && Args.size() == 1) {
    unsigned W = wordBits(typeOf(Args[0]));
    Lin Up;
    Up.Coeff[Var] = 1;
    Up.Const = -swordMaxVal(W);
    addRow(Up);
    Lin Lo;
    Lo.Coeff[Var] = -1;
    Lo.Const = swordMinVal(W);
    addRow(Lo);
  }
}

void LinArith::addHyp(const TermRef &H, bool Negated) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(H, Args);
  if (Head->isConst(nm::Not) && Args.size() == 1)
    return addHyp(Args[0], !Negated);
  if (Head->isConst(nm::Conj) && Args.size() == 2 && !Negated) {
    addHyp(Args[0], false);
    addHyp(Args[1], false);
    return;
  }
  if (Head->isConst(nm::Disj) && Args.size() == 2 && Negated) {
    addHyp(Args[0], true);
    addHyp(Args[1], true);
    return;
  }
  if (Args.size() != 2)
    return;
  const std::string &N = Head->name();
  if (N != nm::Less && N != nm::LessEq && N != nm::Eq)
    return;
  TypeRef Ty = typeOf(Args[0]);
  if (!Ty->isCon("nat") && !Ty->isCon("int"))
    return;
  auto A = parse(Args[0]);
  auto B = parse(Args[1]);
  if (!A || !B)
    return;
  if (N == nm::Eq) {
    if (Negated)
      return; // disequalities are handled by splitting upstream
    addRow(*A - *B);
    addRow(*B - *A);
    return;
  }
  if (!Negated) {
    if (N == nm::LessEq) {
      addRow(*A - *B); // a - b <= 0.
    } else {
      Lin L = *A - *B; // a < b  <=>  a - b + 1 <= 0 (integers).
      L.Const += 1;
      addRow(L);
    }
  } else {
    if (N == nm::LessEq) {
      Lin L = *B - *A; // !(a <= b)  <=>  b + 1 <= a.
      L.Const += 1;
      addRow(L);
    } else {
      addRow(*B - *A); // !(a < b)  <=>  b <= a.
    }
  }
}

bool LinArith::unsat() {
  if (Broken)
    return false;
  std::vector<Lin> Work = Rows;
  // Normalise rows: divide by the gcd of the coefficients, flooring the
  // constant (integer tightening).
  auto Tighten = [](Lin &L) {
    if (L.Coeff.empty())
      return;
    Int G = 0;
    for (auto &[V, C] : L.Coeff)
      G = gcdI(G, C);
    if (G > 1) {
      for (auto &[V, C] : L.Coeff)
        C /= G;
      // sum(c x) + k <= 0 with all c divisible: k <- ceil(k / g).
      Int K = L.Const;
      Int Q = floorDiv(-K, G); // largest Q with G*Q <= -K.
      L.Const = -Q;
    }
  };
  unsigned Guard = 0;
  while (Guard++ < 64) {
    for (Lin &L : Work)
      Tighten(L);
    // Contradiction?
    for (const Lin &L : Work)
      if (L.isConst() && L.Const > 0)
        return true;
    // Pick a variable to eliminate.
    std::map<unsigned, std::pair<unsigned, unsigned>> Counts;
    for (const Lin &L : Work)
      for (auto &[V, C] : L.Coeff)
        (C > 0 ? Counts[V].first : Counts[V].second)++;
    if (Counts.empty())
      return false;
    unsigned Best = Counts.begin()->first;
    size_t BestCost = SIZE_MAX;
    for (auto &[V, PN] : Counts) {
      size_t Cost = size_t(PN.first) * PN.second;
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = V;
      }
    }
    if (BestCost > 400)
      return false; // blowup guard
    std::vector<Lin> Pos, Neg, Rest;
    for (const Lin &L : Work) {
      auto It = L.Coeff.find(Best);
      if (It == L.Coeff.end())
        Rest.push_back(L);
      else if (It->second > 0)
        Pos.push_back(L);
      else
        Neg.push_back(L);
    }
    for (const Lin &P : Pos)
      for (const Lin &Ng : Neg) {
        Int CP = P.Coeff.at(Best);
        Int CN = -Ng.Coeff.at(Best);
        Lin Combined = P.scaled(CN) + Ng.scaled(CP);
        Combined.Coeff.erase(Best);
        Rest.push_back(std::move(Combined));
      }
    Work = std::move(Rest);
    if (Work.size() > 4000)
      return false;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fast term simplification (non-kernel)
//===----------------------------------------------------------------------===//

namespace {

/// One conditional rewrite from a lemma: Conds => Lhs = Rhs.
struct Rewrite {
  std::vector<TermRef> Conds;
  TermRef Lhs, Rhs;
};

/// Turns All-quantified lemma propositions into schematic rules.
TermRef schematize(TermRef T, unsigned &Ctr) {
  TermRef Lam;
  while (destAll(T, Lam)) {
    TermRef V = Term::mkVar("z", Ctr++, Lam->type());
    T = betaNorm(Term::mkApp(Lam, V));
  }
  return T;
}

unsigned countOccurrences(const TermRef &T, const TermRef &Pat) {
  if (termEq(T, Pat))
    return 1;
  switch (T->kind()) {
  case Term::Kind::App:
    return countOccurrences(T->fun(), Pat) +
           countOccurrences(T->argTerm(), Pat);
  case Term::Kind::Lam:
    return countOccurrences(T->body(), Pat);
  default:
    return 0;
  }
}

bool constructorHead(const TermRef &T, std::string &Name) {
  std::vector<TermRef> Args;
  TermRef Head = stripApp(T, Args);
  if (!Head->isConst())
    return false;
  const std::string &N = Head->name();
  if (N == nm::Nil || N == nm::Cons || N == nm::NoneC || N == nm::SomeC ||
      N == nm::NullPtr || N == nm::True || N == nm::False ||
      N == nm::PairC) {
    Name = N;
    return true;
  }
  return false;
}

class Solver {
public:
  Solver(const std::vector<Thm> &Lemmas, const AutoOptions &Opts)
      : Opts(Opts) {
    unsigned Ctr = 0;
    for (const Thm &L : Lemmas) {
      TermRef P = schematize(freshenSchematics(L.prop(), 777), Ctr);
      std::vector<TermRef> Prems;
      TermRef Concl;
      stripImps(P, Prems, Concl);
      TermRef A, B;
      if (destEq(Concl, A, B) && Prems.empty()) {
        Rewrites.push_back({Prems, A, B});
        continue;
      }
      if (!Prems.empty()) {
        // Forward (destruction) use: when all premises match
        // hypotheses, the conclusion becomes a new hypothesis.
        ForwardRules.push_back(P);
      }
      if (!destEq(Concl, A, B))
        ChainRules.push_back(P);
    }
  }

  bool solve(std::vector<TermRef> Hyps, TermRef Concl, unsigned Depth);

private:
  const AutoOptions &Opts;
  std::vector<Rewrite> Rewrites;
  std::vector<TermRef> ChainRules;
  std::vector<TermRef> ForwardRules;
  unsigned Steps = 0;
  unsigned FreshCtr = 0;

  std::string fresh(const std::string &H) {
    return H + "$" + std::to_string(FreshCtr++);
  }

  bool budget() { return ++Steps <= Opts.MaxSteps; }

  //===------------------------------------------------------------------===//
  // Simplification
  //===------------------------------------------------------------------===//

  std::map<const Term *, TermRef> SimpCache;

  TermRef simp(const TermRef &T, unsigned Depth) {
    auto It = SimpCache.find(T.get());
    if (It != SimpCache.end())
      return It->second;
    TermRef Cur = betaNorm(T);
    for (unsigned I = 0; I != 12; ++I) {
      TermRef Next = simpOnce(Cur, Depth);
      if (Next.get() == Cur.get())
        break;
      Cur = Next;
    }
    if (SimpCache.size() < 100000) {
      SimpCache.emplace(T.get(), Cur);
      SimpCache.emplace(Cur.get(), Cur);
      // Keep the results alive so the raw-pointer keys stay valid.
      CacheKeepAlive.push_back(T);
      CacheKeepAlive.push_back(Cur);
    }
    return Cur;
  }
  std::vector<TermRef> CacheKeepAlive;

  std::map<const Term *, TermRef> OnceCache;

  TermRef simpOnce(const TermRef &T, unsigned Depth) {
    auto CIt = OnceCache.find(T.get());
    if (CIt != OnceCache.end())
      return CIt->second;
    TermRef R = simpOnceImpl(T, Depth);
    if (OnceCache.size() < 200000) {
      OnceCache.emplace(T.get(), R);
      CacheKeepAlive.push_back(T);
      CacheKeepAlive.push_back(R);
    }
    return R;
  }

  TermRef simpOnceImpl(const TermRef &T, unsigned Depth) {
    // Children first (not under binders for rewriting soundness of
    // condition solving; plain structural recursion is fine for the
    // unconditional core rules).
    TermRef Cur = T;
    switch (T->kind()) {
    case Term::Kind::App: {
      TermRef F = simpOnce(T->fun(), Depth);
      TermRef X = simpOnce(T->argTerm(), Depth);
      if (F.get() != T->fun().get() || X.get() != T->argTerm().get())
        Cur = betaNorm(Term::mkApp(F, X));
      break;
    }
    case Term::Kind::Lam: {
      TermRef B = simpOnce(T->body(), Depth);
      if (B.get() != T->body().get())
        Cur = Term::mkLam(T->name(), T->type(), B);
      break;
    }
    default:
      break;
    }

    std::vector<TermRef> Args;
    TermRef Head = stripApp(Cur, Args);

    if (Head->isConst()) {
      const std::string &N = Head->name();
      // Logic units.
      if (N == nm::Conj && Args.size() == 2) {
        if (Args[0]->isConst(nm::True))
          return Args[1];
        if (Args[1]->isConst(nm::True))
          return Args[0];
        if (Args[0]->isConst(nm::False) || Args[1]->isConst(nm::False))
          return mkFalse();
        if (termEq(Args[0], Args[1]))
          return Args[0];
      }
      if (N == nm::Disj && Args.size() == 2) {
        if (Args[0]->isConst(nm::False))
          return Args[1];
        if (Args[1]->isConst(nm::False))
          return Args[0];
        if (Args[0]->isConst(nm::True) || Args[1]->isConst(nm::True))
          return mkTrue();
      }
      if (N == nm::Not && Args.size() == 1) {
        if (Args[0]->isConst(nm::True))
          return mkFalse();
        if (Args[0]->isConst(nm::False))
          return mkTrue();
        std::vector<TermRef> NA;
        if (destConstApp(Args[0], nm::Not, 1, NA))
          return NA[0];
      }
      if (N == nm::Implies && Args.size() == 2) {
        if (Args[0]->isConst(nm::True))
          return Args[1];
        if (Args[0]->isConst(nm::False) || Args[1]->isConst(nm::True))
          return mkTrue();
      }
      if (N == nm::Ite && Args.size() == 3) {
        if (Args[0]->isConst(nm::True))
          return Args[1];
        if (Args[0]->isConst(nm::False))
          return Args[2];
        if (termEq(Args[1], Args[2]))
          return Args[1];
      }
      if (N == nm::Eq && Args.size() == 2) {
        if (termEq(Args[0], Args[1]))
          return mkTrue();
        // Distinct literals / distinct constructor heads.
        if (Args[0]->isNum() && Args[1]->isNum())
          return mkBoolLit(Args[0]->value() == Args[1]->value());
        std::string H1, H2;
        if (constructorHead(Args[0], H1) && constructorHead(Args[1], H2) &&
            H1 != H2)
          return mkFalse();
      }
      // fun_upd f x v y --> if y = x then v else f y.
      if (N == "fun_upd") {
        // Partially applied fun_upd is fine; rewrite only when applied.
      }
      // (Closed nodes only: the builders need typeable arguments; the
      // sequent loop opens binders before long, so nothing is lost.)
      if (Cur->isApp() && Cur->maxLoose() == 0) {
        std::vector<TermRef> OA;
        TermRef OHead = stripApp(Cur->fun(), OA);
        if (OHead->isConst("fun_upd") && OA.size() == 3) {
          TermRef Y = Cur->argTerm();
          return mkIte(mkEq(Y, OA[1]), OA[2],
                       betaNorm(Term::mkApp(OA[0], Y)));
        }
      }
      // Round-trip coercions collapse: unat (of_nat (unat t)) = unat t.
      if ((N == nm::Unat || N == nm::Sint) && Args.size() == 1) {
        std::vector<TermRef> OA;
        const char *OfC = N == nm::Unat ? nm::OfNat : nm::OfInt;
        if (destConstApp(Args[0], OfC, 1, OA)) {
          std::vector<TermRef> IA;
          if (destConstApp(OA[0], N.c_str(), 1, IA))
            return OA[0];
        }
      }
      if (N == nm::The && Args.size() == 1) {
        std::vector<TermRef> SA;
        if (destConstApp(Args[0], nm::SomeC, 1, SA))
          return SA[0];
      }
      // Record field access through updates:
      //   f (f_update g r) = g (f r);   f (h_update g r) = f r  (f != h).
      if (N.rfind("fld:", 0) == 0 && Args.size() == 1) {
        std::vector<TermRef> UA;
        TermRef UHead = stripApp(Args[0], UA);
        if (UHead->isConst() && UHead->name().rfind("upd:", 0) == 0 &&
            UA.size() == 2) {
          if (UHead->name().substr(4) == N.substr(4)) {
            // Same field: apply the update function to the old value.
            TermRef Old = Term::mkApp(Head, UA[1]);
            return betaNorm(Term::mkApp(UA[0], Old));
          }
          // Same record, different field: drop the update.
          size_t DotF = N.rfind('.');
          size_t DotU = UHead->name().rfind('.');
          if (N.substr(4, DotF - 4) ==
              UHead->name().substr(4, DotU - 4))
            return Term::mkApp(Head, UA[1]);
        }
      }
    }

    // Ground evaluation.
    if (!Cur->isNum() && !Cur->isConst() && Cur->maxLoose() == 0 &&
        !Cur->hasSchematic()) {
      if (auto G = groundEval(Cur)) {
        TermRef Lit = literalOf(*G);
        if (!termEq(Lit, Cur))
          return Lit;
      }
    }

    // Lemma equations (possibly conditional).
    if (Depth < Opts.MaxDepth)
      for (const Rewrite &RW : Rewrites) {
        std::optional<Subst> M = matchTerm(RW.Lhs, Cur);
        if (!M)
          continue;
        TermRef Rhs = M->apply(RW.Rhs);
        if (Rhs->hasSchematic())
          continue;
        bool CondsOk = true;
        for (const TermRef &C : RW.Conds) {
          TermRef CI = M->apply(C);
          if (CI->hasSchematic() ||
              !solve({}, CI, Depth + 20)) { // low-budget side solve
            CondsOk = false;
            break;
          }
        }
        if (CondsOk && !termEq(Rhs, Cur))
          return Rhs;
      }

    return Cur;
  }

  //===------------------------------------------------------------------===//
  // Closing checks
  //===------------------------------------------------------------------===//

  bool congruenceProves(const std::vector<TermRef> &Hyps,
                        const TermRef &A, const TermRef &B) {
    // Union-find over a small term universe.
    std::vector<TermRef> Univ{A, B};
    std::vector<std::pair<TermRef, TermRef>> Eqs;
    for (const TermRef &H : Hyps) {
      TermRef L, R;
      if (destEq(H, L, R)) {
        Eqs.emplace_back(L, R);
        Univ.push_back(L);
        Univ.push_back(R);
      }
    }
    auto Find = [&](const TermRef &T) -> int {
      for (size_t I = 0; I != Univ.size(); ++I)
        if (termEq(Univ[I], T))
          return I;
      return -1;
    };
    std::vector<unsigned> Parent(Univ.size());
    for (size_t I = 0; I != Univ.size(); ++I)
      Parent[I] = I;
    std::function<unsigned(unsigned)> Root = [&](unsigned X) -> unsigned {
      while (Parent[X] != X)
        X = Parent[X] = Parent[Parent[X]];
      return X;
    };
    for (auto &[L, R] : Eqs) {
      int LI = Find(L), RI = Find(R);
      if (LI >= 0 && RI >= 0)
        Parent[Root(LI)] = Root(RI);
    }
    int AI = Find(A), BI = Find(B);
    return AI >= 0 && BI >= 0 && Root(AI) == Root(BI);
  }

  /// Quick check whether linear arithmetic could possibly contribute.
  static bool mentionsArith(const TermRef &T) {
    if (T->isConst()) {
      const std::string &N = T->name();
      return N == nm::Less || N == nm::LessEq;
    }
    if (T->isNum())
      return true;
    if (T->isApp())
      return mentionsArith(T->fun()) || mentionsArith(T->argTerm());
    if (T->isLam())
      return mentionsArith(T->body());
    return false;
  }

  static bool numericEq(const TermRef &T) {
    TermRef A, B;
    if (!destEq(T, A, B))
      return false;
    TypeRef Ty = typeOf(A);
    return Ty->isCon("nat") || Ty->isCon("int");
  }

  bool closes(const std::vector<TermRef> &Hyps, const TermRef &Concl) {
    if (Concl->isConst(nm::True))
      return true;
    for (const TermRef &H : Hyps) {
      if (termEq(H, Concl))
        return true;
      if (H->isConst(nm::False))
        return true;
      std::vector<TermRef> NA;
      if (destConstApp(H, nm::Not, 1, NA))
        for (const TermRef &H2 : Hyps)
          if (termEq(H2, NA[0]))
            return true;
    }
    // Congruence.
    TermRef L, R;
    if (destEq(Concl, L, R) && congruenceProves(Hyps, L, R))
      return true;
    // Ground.
    if (Concl->maxLoose() == 0 && !Concl->hasSchematic())
      if (auto G = groundEval(Concl))
        if (G->IsBool && G->B)
          return true;
    // Linear arithmetic: hyps + !concl unsat. Only worth running when
    // something arithmetic is in sight.
    bool Arith = mentionsArith(Concl) ||
                 (Concl->maxLoose() == 0 && numericEq(Concl));
    if (!Arith)
      for (const TermRef &H : Hyps)
        if (mentionsArith(H) || numericEq(H)) {
          Arith = true;
          break;
        }
    if (!Arith)
      return false;
    LinArith LA;
    for (const TermRef &H : Hyps)
      LA.addHyp(H);
    LA.addHyp(Concl, /*Negated=*/true);
    return LA.unsat();
  }

  //===------------------------------------------------------------------===//
  // Split / witness search helpers
  //===------------------------------------------------------------------===//

  /// Finds an If subterm whose condition is closed (so the split is
  /// meaningful at the sequent level). Does not look under binders.
  TermRef findIte(const TermRef &T) {
    if (T->isLam())
      return nullptr;
    std::vector<TermRef> Args;
    TermRef Head = stripApp(T, Args);
    if (Head->isConst(nm::Ite) && Args.size() == 3 &&
        T->maxLoose() == 0)
      return T;
    for (const TermRef &A : Args)
      if (TermRef Found = findIte(A))
        return Found;
    return nullptr;
  }

  /// Replaces every occurrence of the specific If node by a branch.
  TermRef replaceIte(const TermRef &T, const TermRef &IfNode,
                     const TermRef &Branch) {
    if (termEq(T, IfNode))
      return Branch;
    switch (T->kind()) {
    case Term::Kind::App: {
      TermRef F = replaceIte(T->fun(), IfNode, Branch);
      TermRef X = replaceIte(T->argTerm(), IfNode, Branch);
      if (F.get() == T->fun().get() && X.get() == T->argTerm().get())
        return T;
      return Term::mkApp(F, X);
    }
    case Term::Kind::Lam: {
      TermRef B = replaceIte(T->body(), IfNode, Branch);
      if (B.get() == T->body().get())
        return T;
      return Term::mkLam(T->name(), T->type(), B);
    }
    default:
      return T;
    }
  }

  /// Collects witness candidates of type \p Ty from a term.
  void collectWitnesses(const TermRef &T, const TypeRef &Ty,
                        std::vector<TermRef> &Out) {
    if (T->maxLoose() == 0 && !T->isLam() && Out.size() < 24) {
      TypeRef TT = typeOf(T);
      if (typeEq(TT, Ty)) {
        for (const TermRef &O : Out)
          if (termEq(O, T))
            return void();
        Out.push_back(T);
      }
    }
    if (T->isApp()) {
      collectWitnesses(T->fun(), Ty, Out);
      collectWitnesses(T->argTerm(), Ty, Out);
    }
  }

public:
  bool solveEntry(const TermRef &Goal) { return solve({}, Goal, 0); }
};

bool Solver::solve(std::vector<TermRef> Hyps, TermRef Concl,
                   unsigned Depth) {
  if (!budget() || Depth > Opts.MaxDepth)
    return false;
  // Normalise the conclusion.
  Concl = simp(Concl, Depth);
  {
    std::vector<TermRef> Args;
    TermRef Head = stripApp(Concl, Args);
    if (Concl->isConst(nm::True))
      return true;
    TermRef Lam;
    if (destAll(Concl, Lam)) {
      TermRef F = Term::mkFree(fresh("v"), Lam->type());
      return solve(std::move(Hyps), betaNorm(Term::mkApp(Lam, F)),
                   Depth + 1);
    }
    TermRef A, B;
    if (destImp(Concl, A, B)) {
      Hyps.push_back(A);
      return solve(std::move(Hyps), B, Depth + 1);
    }
    if (destConj(Concl, A, B)) {
      std::vector<TermRef> H2 = Hyps;
      return solve(std::move(H2), A, Depth + 1) &&
             solve(std::move(Hyps), B, Depth + 1);
    }
    std::vector<TermRef> NA;
    if (destConstApp(Concl, nm::Not, 1, NA)) {
      Hyps.push_back(NA[0]);
      return solve(std::move(Hyps), mkFalse(), Depth + 1);
    }
    (void)Head;
  }

  // Normalise hypotheses (one pass; new material loops through solve).
  for (size_t I = 0; I != Hyps.size(); ++I) {
    Hyps[I] = simp(Hyps[I], Depth);
    TermRef A, B;
    if (destConj(Hyps[I], A, B)) {
      Hyps[I] = A;
      Hyps.push_back(B);
      --I;
      continue;
    }
    std::vector<TermRef> EA;
    if (destConstApp(Hyps[I], nm::Ex, 1, EA) && EA[0]->isLam()) {
      TermRef F = Term::mkFree(fresh("w"), EA[0]->type());
      Hyps[I] = betaNorm(Term::mkApp(EA[0], F));
      --I;
      continue;
    }
    if (Hyps[I]->isConst(nm::False))
      return true;
    if (Hyps[I]->isConst(nm::True)) {
      Hyps.erase(Hyps.begin() + I);
      --I;
      continue;
    }
    // Equality substitution for variable hypotheses.
    if (destEq(Hyps[I], A, B)) {
      TermRef Var, Val;
      if (A->isFree() && !occursFree(B, A->name())) {
        Var = A;
        Val = B;
      } else if (B->isFree() && !occursFree(A, B->name())) {
        Var = B;
        Val = A;
      }
      if (Var) {
        for (TermRef &H : Hyps)
          H = betaNorm(substFree(H, Var->name(), Val));
        Concl = betaNorm(substFree(Concl, Var->name(), Val));
        return solve(std::move(Hyps), Concl, Depth + 1);
      }
    }
  }

  // Cheap closing checks before any saturation work.
  if (closes(Hyps, Concl))
    return true;

  // Forward saturation: destruction lemmas fire when all their premises
  // are present as hypotheses, contributing new facts (bounded rounds).
  for (unsigned Round = 0; Round != 3; ++Round) {
    if (Hyps.size() > 140)
      break;
    bool Added = false;
    for (const TermRef &Rule : ForwardRules) {
      std::vector<TermRef> Prems;
      TermRef RC;
      stripImps(Rule, Prems, RC);
      // Match premises against hypotheses (first-fit, depth-first).
      std::function<bool(size_t, Subst)> Match = [&](size_t I,
                                                     Subst S) -> bool {
        if (I == Prems.size()) {
          TermRef New = S.apply(RC);
          if (New->hasSchematic())
            return false;
          New = simp(New, Depth);
          for (const TermRef &H : Hyps)
            if (termEq(H, New))
              return false; // already known
          Hyps.push_back(New);
          Added = true;
          return true;
        }
        TermRef P = S.apply(Prems[I]);
        for (const TermRef &H : Hyps) {
          Subst S2 = S;
          if (unifyTerms(P, H, S2, /*RigidRight=*/true) &&
              Match(I + 1, std::move(S2)))
            return true;
        }
        return false;
      };
      Subst S0;
      Match(0, S0);
      if (!budget())
        return false;
    }
    if (!Added)
      break;
  }

  // Re-normalise any facts the saturation added (conjunctions etc.).
  for (size_t I = 0; I != Hyps.size(); ++I) {
    TermRef A, B;
    if (destConj(Hyps[I], A, B)) {
      Hyps[I] = A;
      Hyps.push_back(B);
      --I;
    }
  }

  // Bounded instantiation of universal hypotheses with goal subterms.
  if (Hyps.size() < 140) {
    size_t NHyps = Hyps.size();
    for (size_t I = 0; I != NHyps; ++I) {
      TermRef Lam;
      if (!destAll(Hyps[I], Lam) || !Lam->isLam())
        continue;
      std::vector<TermRef> Cands;
      collectWitnesses(Concl, Lam->type(), Cands);
      for (const TermRef &H : Hyps)
        if (Cands.size() < 8)
          collectWitnesses(H, Lam->type(), Cands);
      unsigned Used = 0;
      for (const TermRef &W : Cands) {
        if (Used++ == 6)
          break;
        TermRef Inst = simp(betaNorm(Term::mkApp(Lam, W)), Depth);
        bool Known = false;
        for (const TermRef &H : Hyps)
          if (termEq(H, Inst)) {
            Known = true;
            break;
          }
        if (!Known)
          Hyps.push_back(Inst);
      }
    }
  }

  // Equality-hypothesis rewriting: a hypothesis `L = R` with a compound,
  // closed L rewrites other occurrences of L (when R does not mention L,
  // which ensures progress). In-place fixpoint.
  for (unsigned Round = 0; Round != 10; ++Round) {
    bool Changed = false;
    for (size_t I = 0; I != Hyps.size(); ++I) {
      TermRef L, R;
      if (!destEq(Hyps[I], L, R))
        continue;
      if (L->isFree() || L->isNum() || L->maxLoose() != 0)
        continue;
      if (countOccurrences(R, L) != 0)
        continue;
      for (size_t J = 0; J != Hyps.size(); ++J) {
        if (J == I)
          continue;
        TermRef H2 = replaceIte(Hyps[J], L, R);
        if (H2.get() != Hyps[J].get()) {
          Hyps[J] = simp(H2, Depth);
          Changed = true;
        }
      }
      TermRef C2 = replaceIte(Concl, L, R);
      if (C2.get() != Concl.get()) {
        Concl = simp(C2, Depth);
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }

  // Rewriting may have exposed variable equalities (e.g. ps = Nil after
  // List v H NULL ps collapsed); substitute and restart.
  for (size_t I = 0; I != Hyps.size(); ++I) {
    TermRef A2, B2;
    if (!destEq(Hyps[I], A2, B2))
      continue;
    TermRef Var, Val;
    if (A2->isFree() && !occursFree(B2, A2->name())) {
      Var = A2;
      Val = B2;
    } else if (B2->isFree() && !occursFree(A2, B2->name())) {
      Var = B2;
      Val = A2;
    }
    if (Var) {
      Hyps.erase(Hyps.begin() + I);
      for (TermRef &H : Hyps)
        H = betaNorm(substFree(H, Var->name(), Val));
      Concl = betaNorm(substFree(Concl, Var->name(), Val));
      return solve(std::move(Hyps), Concl, Depth + 1);
    }
  }

  if (closes(Hyps, Concl))
    return true;

  // If-splitting (conclusion first, then hypotheses).
  {
    auto TrySplit = [&](const TermRef &Host, bool IsConcl,
                        size_t HypIdx) -> std::optional<bool> {
      TermRef IfNode = findIte(Host);
      if (!IfNode)
        return std::nullopt;
      std::vector<TermRef> IArgs;
      stripApp(IfNode, IArgs);
      TermRef C = IArgs[0];
      auto Branch = [&](const TermRef &CondHyp, const TermRef &Repl) {
        std::vector<TermRef> H2 = Hyps;
        TermRef NewConcl = Concl;
        if (IsConcl)
          NewConcl = replaceIte(Concl, IfNode, Repl);
        else
          H2[HypIdx] = replaceIte(H2[HypIdx], IfNode, Repl);
        H2.push_back(CondHyp);
        return solve(std::move(H2), NewConcl, Depth + 1);
      };
      return Branch(C, IArgs[1]) && Branch(mkNot(C), IArgs[2]);
    };
    if (auto R = TrySplit(Concl, true, 0))
      return *R;
    for (size_t I = 0; I != Hyps.size(); ++I)
      if (auto R = TrySplit(Hyps[I], false, I))
        return *R;
  }

  // Disjunction split in hypotheses.
  for (size_t I = 0; I != Hyps.size(); ++I) {
    std::vector<TermRef> DA;
    if (destConstApp(Hyps[I], nm::Disj, 2, DA)) {
      std::vector<TermRef> H1 = Hyps, H2 = Hyps;
      H1[I] = DA[0];
      H2[I] = DA[1];
      return solve(std::move(H1), Concl, Depth + 1) &&
             solve(std::move(H2), Concl, Depth + 1);
    }
  }

  // Numeric disequality split (for linear arithmetic completeness).
  for (size_t I = 0; I != Hyps.size(); ++I) {
    std::vector<TermRef> NA;
    if (destConstApp(Hyps[I], nm::Not, 1, NA)) {
      TermRef A, B;
      if (destEq(NA[0], A, B)) {
        TypeRef Ty = typeOf(A);
        if (Ty->isCon("nat") || Ty->isCon("int")) {
          std::vector<TermRef> H1 = Hyps, H2 = Hyps;
          H1[I] = mkLess(A, B);
          H2[I] = mkLess(B, A);
          return solve(std::move(H1), Concl, Depth + 1) &&
                 solve(std::move(H2), Concl, Depth + 1);
        }
      }
    }
  }

  // Numeric equality goals: prove both inequalities (completes the
  // linear-arithmetic story for equalities).
  {
    TermRef A2, B2;
    if (destEq(Concl, A2, B2)) {
      TypeRef Ty = typeOf(A2);
      if (Ty->isCon("nat") || Ty->isCon("int")) {
        std::vector<TermRef> H1 = Hyps, H2 = Hyps;
        if (solve(std::move(H1), mkLessEq(A2, B2), Depth + 1) &&
            solve(std::move(H2), mkLessEq(B2, A2), Depth + 1))
          return true;
      }
    }
  }

  // nat-subtraction split: a - b is max(a - b, 0); replace by a fresh
  // variable constrained per branch so linear arithmetic sees it.
  {
    std::function<TermRef(const TermRef &)> FindNatMinus =
        [&](const TermRef &T) -> TermRef {
      if (T->isLam())
        return nullptr;
      std::vector<TermRef> MA;
      TermRef MHead = stripApp(T, MA);
      if (MHead->isConst(nm::Minus) && MA.size() == 2 &&
          typeOf(MA[0])->isCon("nat") && T->maxLoose() == 0)
        return T;
      for (const TermRef &A2 : MA)
        if (TermRef F = FindNatMinus(A2))
          return F;
      return nullptr;
    };
    TermRef MinusNode;
    for (const TermRef &H : Hyps)
      if ((MinusNode = FindNatMinus(H)))
        break;
    if (!MinusNode)
      MinusNode = FindNatMinus(Concl);
    if (MinusNode) {
      std::vector<TermRef> MA;
      stripApp(MinusNode, MA);
      TermRef D = Term::mkFree(fresh("d"), natTy());
      auto Rep = [&](const TermRef &T) {
        return replaceIte(T, MinusNode, D);
      };
      std::vector<TermRef> H1, H2;
      for (const TermRef &H : Hyps) {
        H1.push_back(Rep(H));
        H2.push_back(Rep(H));
      }
      TermRef C1 = Rep(Concl), C2 = Rep(Concl);
      // Branch 1: b <= a, d + b = a.
      H1.push_back(mkLessEq(MA[1], MA[0]));
      H1.push_back(mkEq(mkPlus(D, MA[1]), MA[0]));
      // Branch 2: a < b, d = 0.
      H2.push_back(mkLess(MA[0], MA[1]));
      H2.push_back(mkEq(D, mkNumOf(natTy(), 0)));
      return solve(std::move(H1), C1, Depth + 1) &&
             solve(std::move(H2), C2, Depth + 1);
    }
  }

  // Existential witness search.
  {
    std::vector<TermRef> EA;
    if (Opts.WitnessSearch &&
        destConstApp(Concl, nm::Ex, 1, EA) && EA[0]->isLam()) {
      TypeRef WTy = EA[0]->type();
      std::vector<TermRef> Cands;
      // Priority candidates: unify the existential body's conjuncts
      // against hypotheses — a matching hypothesis proposes the witness
      // directly (e.g. `List v H next ?w` against `List v H next (tl ps)`
      // proposes tl ps).
      {
        TermRef WVar = Term::mkVar("w!cand", 990000, WTy);
        TermRef BodyW = betaNorm(Term::mkApp(EA[0], WVar));
        std::vector<TermRef> Conjs{BodyW};
        for (size_t I = 0; I != Conjs.size(); ++I) {
          TermRef A2, B2;
          if (destConj(Conjs[I], A2, B2)) {
            Conjs[I] = A2;
            Conjs.push_back(B2);
            --I;
            continue;
          }
          // Strip inner existentials for matching purposes.
          std::vector<TermRef> IEA;
          if (destConstApp(Conjs[I], nm::Ex, 1, IEA) && IEA[0]->isLam()) {
            Conjs[I] = betaNorm(Term::mkApp(
                IEA[0], Term::mkVar("w!inner", 990001, IEA[0]->type())));
            --I;
            continue;
          }
        }
        for (const TermRef &C : Conjs) {
          if (!C->hasSchematic())
            continue;
          for (const TermRef &H : Hyps) {
            Subst S2;
            if (!unifyTerms(C, H, S2, /*RigidRight=*/true))
              continue;
            if (const TermRef *W = S2.lookup("w!cand", 990000)) {
              TermRef WT = *W;
              if (!WT->hasSchematic() && WT->maxLoose() == 0) {
                bool Dup = false;
                for (const TermRef &O : Cands)
                  if (termEq(O, WT))
                    Dup = true;
                if (!Dup)
                  Cands.push_back(WT);
              }
            }
          }
        }
      }
      for (const TermRef &H : Hyps)
        collectWitnesses(H, WTy, Cands);
      collectWitnesses(Concl, WTy, Cands);
      // Numeric existentials: enumerate the numerals of the body plus a
      // small derived neighbourhood (v/2 catches doubling equations,
      // v±1 catches off-by-one bounds).
      if (WTy->isCon("nat") || WTy->isCon("int")) {
        std::vector<Int128> Vals{0, 1};
        TermRef BodyN = betaNorm(
            Term::mkApp(EA[0], Term::mkFree("w!num", WTy)));
        std::function<void(const TermRef &)> Nums =
            [&](const TermRef &U) {
              if (U->isNum())
                Vals.push_back(U->value());
              if (U->isApp()) {
                Nums(U->fun());
                Nums(U->argTerm());
              }
              if (U->isLam())
                Nums(U->body());
            };
        Nums(BodyN);
        size_t Base = Vals.size();
        for (size_t I = 0; I != Base; ++I) {
          Vals.push_back(Vals[I] / 2);
          Vals.push_back(Vals[I] + 1);
          if (Vals[I] > 0)
            Vals.push_back(Vals[I] - 1);
        }
        for (Int128 V : Vals) {
          if (WTy->isCon("nat") && V < 0)
            continue;
          TermRef NT = mkNumOf(WTy, V);
          bool Dup = false;
          for (const TermRef &O : Cands)
            if (termEq(O, NT))
              Dup = true;
          if (!Dup)
            Cands.push_back(NT);
        }
      }
      // For list types, also try simple constructions.
      if (WTy->isCon("list")) {
        std::vector<TermRef> Elems;
        for (const TermRef &H : Hyps)
          collectWitnesses(H, WTy->arg(0), Elems);
        std::vector<TermRef> Extra;
        TermRef NilT = Term::mkConst(nm::Nil, WTy);
        Extra.push_back(NilT);
        for (const TermRef &E : Elems) {
          TermRef ConsC = Term::mkConst(
              nm::Cons, funTys({WTy->arg(0), WTy}, WTy));
          for (const TermRef &L : Cands)
            Extra.push_back(mkApps(ConsC, {E, L}));
          Extra.push_back(mkApps(ConsC, {E, NilT}));
        }
        Cands.insert(Cands.end(), Extra.begin(), Extra.end());
      }
      for (const TermRef &Wit : Cands) {
        std::vector<TermRef> H2 = Hyps;
        if (solve(std::move(H2),
                  betaNorm(Term::mkApp(EA[0], Wit)), Depth + 4))
          return true;
      }
      return false;
    }
  }

  // Backward chaining into the lemma library.
  for (const TermRef &Rule : ChainRules) {
    std::vector<TermRef> Prems;
    TermRef RC;
    stripImps(Rule, Prems, RC);
    Subst S;
    if (!unifyTerms(RC, Concl, S, /*RigidRight=*/true))
      continue;
    bool Ok = true;
    for (const TermRef &P : Prems) {
      TermRef PI = S.apply(P);
      if (PI->hasSchematic()) {
        Ok = false;
        break;
      }
      std::vector<TermRef> H2 = Hyps;
      if (!solve(std::move(H2), PI, Depth + 8)) {
        Ok = false;
        break;
      }
    }
    if (Ok)
      return true;
  }

  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

std::optional<Thm> AutoProver::prove(const TermRef &Goal,
                                     const AutoOptions &Opts) {
  Solver S(Lemmas, Opts);
  if (!S.solveEntry(Goal))
    return std::nullopt;
  return Kernel::oracle("auto", Goal);
}

//===----------------------------------------------------------------------===//
// Countermodel search
//===----------------------------------------------------------------------===//

namespace {

class RandomModel {
public:
  RandomModel(monad::InterpCtx &Ctx, uint64_t Seed) : Ctx(Ctx), S(Seed) {}

  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }

  monad::Value randomValue(const TypeRef &Ty, unsigned Depth = 0) {
    using monad::Value;
    if (isFunTy(Ty) && Depth < 4) {
      // A random finite function: a small table over a default.
      auto Table =
          std::make_shared<std::map<std::string, Value>>();
      TypeRef Ran = ranTy(Ty);
      Value Default = randomValue(Ran, Depth + 1);
      // Lazily extend the table so unseen inputs get fresh random
      // values, deterministically per input.
      auto SeedBase = next();
      monad::InterpCtx *CP = &Ctx;
      TypeRef RanC = Ran;
      return Value::fun([Table, Default, SeedBase, CP, RanC,
                         Depth](const Value &In) {
        std::string Key = In.str();
        auto It = Table->find(Key);
        if (It != Table->end())
          return It->second;
        uint64_t H = SeedBase;
        for (char C : Key)
          H = H * 1099511628211ULL + static_cast<unsigned char>(C);
        RandomModel Sub(*CP, H ? H : 1);
        Value V = Sub.randomValue(RanC, Depth + 1);
        Table->emplace(Key, V);
        return V;
      });
    }
    if (isWordTy(Ty) || isSwordTy(Ty) || Ty->isCon("nat") ||
        Ty->isCon("int")) {
      Int128 Raw;
      switch (next() % 4) {
      case 0:
        Raw = static_cast<Int128>(next() % 6);
        break;
      case 1:
        Raw = static_cast<Int128>(next() % 64);
        break;
      default:
        Raw = static_cast<Int128>(next() % 1024);
        break;
      }
      if (Ty->isCon("int") && (next() & 1))
        Raw = -Raw;
      if (isWordTy(Ty) || isSwordTy(Ty))
        Raw = normalizeToType(static_cast<Int128>(next()), Ty);
      return monad::Value::num(Raw, Ty);
    }
    if (Ty->isCon("bool"))
      return monad::Value::boolean(next() & 1);
    if (isPtrTy(Ty))
      return monad::Value::ptr(static_cast<uint32_t>(next() % 8) * 4,
                               typeStr(Ty->arg(0)));
    if (Ty->isCon("list")) {
      unsigned N = next() % 4;
      std::vector<monad::Value> Vs;
      for (unsigned I = 0; I != N; ++I)
        Vs.push_back(randomValue(Ty->arg(0), Depth + 1));
      return monad::Value::list(std::move(Vs));
    }
    if (Ty->isCon("prod"))
      return monad::Value::pair(randomValue(Ty->arg(0), Depth + 1),
                                randomValue(Ty->arg(1), Depth + 1));
    if (Ty->isCon("option")) {
      if (next() & 1)
        return monad::Value::none();
      return monad::Value::some(randomValue(Ty->arg(0), Depth + 1));
    }
    if (Ty->isCon() && Ty->name().rfind("record:", 0) == 0 && Ctx.Prog) {
      const hol::RecordInfo *RI =
          Ctx.Prog->Records.lookup(Ty->name().substr(7));
      if (RI) {
        std::map<std::string, monad::Value> Fields;
        for (const auto &[FName, FTy] : RI->Fields)
          Fields.emplace(FName, randomValue(FTy, Depth + 1));
        return monad::Value::record(Ty->name().substr(7),
                                    std::move(Fields));
      }
    }
    return Ctx.defaultValue(Ty);
  }

private:
  monad::InterpCtx &Ctx;
  uint64_t S;
};

/// Evaluates a quantified boolean term under random instantiation of
/// outer universals. Nested quantifiers over small enumerable domains
/// (bool) are expanded; others are sampled.
bool evalRandom(const TermRef &T, RandomModel &M, monad::InterpCtx &Ctx,
                std::map<std::string, monad::Value> &Env, unsigned Depth);

monad::Value evalWithFrees(const TermRef &T, monad::InterpCtx &Ctx,
                           std::map<std::string, monad::Value> &Env,
                           RandomModel &M) {
  // Substitute frees by injecting them through closures: wrap the term
  // in lambdas and apply.
  TermRef Cur = T;
  std::vector<monad::Value> Vals;
  std::vector<std::pair<std::string, TypeRef>> FVs;
  // Collect frees with types.
  std::function<void(const TermRef &)> Go = [&](const TermRef &U) {
    if (U->isFree()) {
      for (auto &[N, Ty] : FVs)
        if (N == U->name())
          return;
      FVs.emplace_back(U->name(), U->type());
      return;
    }
    if (U->isLam())
      Go(U->body());
    if (U->isApp()) {
      Go(U->fun());
      Go(U->argTerm());
    }
  };
  Go(T);
  for (auto It = FVs.rbegin(); It != FVs.rend(); ++It)
    Cur = lambdaFree(It->first, It->second, Cur);
  monad::Value V = monad::evalClosed(Cur, Ctx);
  for (auto &[N, Ty] : FVs) {
    // Frees of the goal itself (as opposed to quantifier instances,
    // which are pre-assigned) are implicitly universal: sample them once
    // per trial so repeated occurrences agree.
    auto It = Env.find(N);
    if (It == Env.end())
      It = Env.emplace(N, M.randomValue(Ty)).first;
    V = V.Fun(It->second);
  }
  return V;
}

bool evalRandom(const TermRef &T, RandomModel &M, monad::InterpCtx &Ctx,
                std::map<std::string, monad::Value> &Env, unsigned Depth) {
  TermRef Lam;
  if (destAll(T, Lam)) {
    // Sample several instantiations; all must hold.
    unsigned Samples = Depth == 0 ? 6 : 3;
    for (unsigned I = 0; I != Samples; ++I) {
      std::string N = "rm!" + std::to_string(Depth) + "_" +
                      std::to_string(I);
      TermRef F = Term::mkFree(N, Lam->type());
      Env[N] = M.randomValue(Lam->type());
      if (!evalRandom(betaNorm(Term::mkApp(Lam, F)), M, Ctx, Env,
                      Depth + 1))
        return false;
    }
    return true;
  }
  TermRef A, B;
  if (destImp(T, A, B)) {
    if (!evalRandom(A, M, Ctx, Env, Depth + 1))
      return true;
    return evalRandom(B, M, Ctx, Env, Depth + 1);
  }
  if (destConj(T, A, B))
    return evalRandom(A, M, Ctx, Env, Depth + 1) &&
           evalRandom(B, M, Ctx, Env, Depth + 1);
  std::vector<TermRef> EA;
  if (destConstApp(T, nm::Ex, 1, EA) && EA[0]->isLam()) {
    // Sample witnesses; report true if any works (may under-approximate,
    // which can only cause false "refutations" — callers sample many
    // seeds, and the lemma tests use goals whose existentials are
    // shallow). For numeric existentials, sweep the small values first:
    // bounded witnesses dominate in practice and random sampling of a
    // 2^64 space would miss them.
    TypeRef WTy = EA[0]->type();
    if (WTy->isCon("nat") || WTy->isCon("int")) {
      for (int V = (WTy->isCon("int") ? -16 : 0); V <= 32; ++V) {
        std::string N = "rme!" + std::to_string(Depth) + "_s" +
                        std::to_string(V + 16);
        TermRef F = Term::mkFree(N, WTy);
        Env[N] = monad::Value::num(V, WTy);
        if (evalRandom(betaNorm(Term::mkApp(EA[0], F)), M, Ctx, Env,
                       Depth + 1))
          return true;
      }
    }
    for (unsigned I = 0; I != 8; ++I) {
      std::string N = "rme!" + std::to_string(Depth) + "_" +
                      std::to_string(I);
      TermRef F = Term::mkFree(N, EA[0]->type());
      Env[N] = M.randomValue(EA[0]->type());
      if (evalRandom(betaNorm(Term::mkApp(EA[0], F)), M, Ctx, Env,
                     Depth + 1))
        return true;
    }
    return false;
  }
  monad::Value V = evalWithFrees(T, Ctx, Env, M);
  assert(V.K == monad::Value::Kind::Bool &&
         "countermodel evaluation of non-boolean");
  return V.B;
}

} // namespace

bool AutoProver::refute(const TermRef &Goal, monad::InterpCtx &Ctx,
                        unsigned Trials, uint64_t Seed) {
  for (unsigned I = 0; I != Trials; ++I) {
    RandomModel M(Ctx, Seed + I * 2654435761ULL);
    std::map<std::string, monad::Value> Env;
    if (!evalRandom(Goal, M, Ctx, Env, 0))
      return true;
  }
  return false;
}

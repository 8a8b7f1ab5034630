//===- Cert.cpp -----------------------------------------------------------===//

#include "hol/Cert.h"

#include "hol/Builder.h"
#include "support/Fingerprint.h"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

using namespace ac::hol;
using ac::support::Fingerprint;

//===----------------------------------------------------------------------===//
// CertLog
//===----------------------------------------------------------------------===//

static std::atomic<bool> CertEnabled{false};

// One-time environment check, folded into the first enabled() query so
// AC_CERT / AC_CERT_DIR work for embedders that never touch CertLog.
static bool envWantsCert() {
  static bool Want = [] {
    const char *E = std::getenv("AC_CERT");
    const char *D = std::getenv("AC_CERT_DIR");
    return (E && *E) || (D && *D);
  }();
  return Want;
}

bool CertLog::enabled() {
  if (CertEnabled.load(std::memory_order_relaxed))
    return true;
  if (envWantsCert()) {
    CertEnabled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void CertLog::enable() { CertEnabled.store(true, std::memory_order_relaxed); }

//===----------------------------------------------------------------------===//
// Canonical fingerprints
//===----------------------------------------------------------------------===//

// Certificates hash with support::Fingerprint from their own basis, the
// FNV-1a offset basis short of its last decimal digit. The checker
// (tools/acpc_check.h) restates it; changing it would change the
// fingerprint of every axiom record.
static Fingerprint certHasher() {
  return Fingerprint::fromBasis(1469598103934665603ULL);
}
static void tag(Fingerprint &F, uint8_t B) { F.bytes(&B, 1); }

uint64_t ac::hol::certTypeFingerprint(const TypeRef &T) {
  Fingerprint F = certHasher();
  if (T->isVar()) {
    tag(F, 0x01);
    F.str(T->name());
    return F.digest();
  }
  tag(F, 0x02);
  F.str(T->name());
  F.u64(T->args().size());
  for (const TypeRef &A : T->args())
    F.u64(certTypeFingerprint(A));
  return F.digest();
}

uint64_t ac::hol::certTermFingerprint(const TermRef &T) {
  Fingerprint F = certHasher();
  switch (T->kind()) {
  case Term::Kind::Const:
    tag(F, 0x11);
    F.str(T->name());
    F.u64(certTypeFingerprint(T->type()));
    break;
  case Term::Kind::Free:
    tag(F, 0x12);
    F.str(T->name());
    F.u64(certTypeFingerprint(T->type()));
    break;
  case Term::Kind::Var:
    tag(F, 0x13);
    F.str(T->name());
    F.u64(T->index());
    F.u64(certTypeFingerprint(T->type()));
    break;
  case Term::Kind::Bound:
    tag(F, 0x14);
    F.u64(T->index());
    break;
  case Term::Kind::Lam:
    tag(F, 0x15);
    F.str(T->name());
    F.u64(certTypeFingerprint(T->type()));
    F.u64(certTermFingerprint(T->body()));
    break;
  case Term::Kind::App:
    tag(F, 0x16);
    F.u64(certTermFingerprint(T->fun()));
    F.u64(certTermFingerprint(T->argTerm()));
    break;
  case Term::Kind::Num: {
    tag(F, 0x17);
    auto V = static_cast<unsigned __int128>(T->value());
    F.u64(static_cast<uint64_t>(V));
    F.u64(static_cast<uint64_t>(V >> 64));
    F.u64(certTypeFingerprint(T->type()));
    break;
  }
  }
  return F.digest();
}

//===----------------------------------------------------------------------===//
// Record-kind registry
//===----------------------------------------------------------------------===//

const std::vector<std::string> &ac::hol::certRecordKinds() {
  static const std::vector<std::string> Kinds = {
      // Framing.
      "header", "meta", "type", "term", "claim", "trailer",
      // Leaves.
      "axiom", "oracle",
      // The derived rules of class Kernel, one record kind each.
      "trivial", "instantiate", "mp", "generalize", "spec", "refl", "sym",
      "trans", "combination", "abstract", "betaConv", "eqTrueIntro",
      "eqTrueElim", "eqMp", "conjI", "conjE"};
  return Kinds;
}

//===----------------------------------------------------------------------===//
// Token escaping
//===----------------------------------------------------------------------===//

/// Appends certEscape(\p S) to \p Out.
static void putEscaped(std::string &Out, const std::string &S) {
  static const char *Hex = "0123456789abcdef";
  for (unsigned char C : S) {
    if (C > 0x20 && C < 0x7f && C != '%' && C != ':') {
      Out.push_back(static_cast<char>(C));
    } else {
      Out.push_back('%');
      Out.push_back(Hex[C >> 4]);
      Out.push_back(Hex[C & 0xf]);
    }
  }
}

std::string ac::hol::certEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  putEscaped(Out, S);
  return Out;
}

static std::string tok(const std::string &S) { return ":" + certEscape(S); }

static std::string u64Str(uint64_t V) { return std::to_string(V); }

// The type and term records are most of a certificate, so they are
// appended field by field: a space, then the token or the number.

static void putTok(std::string &Out, const std::string &S) {
  Out += " :";
  putEscaped(Out, S);
}

static void putU64(std::string &Out, uint64_t V) {
  char Buf[24];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  Out.push_back(' ');
  Out.append(Buf, End);
}

static std::string int128Str(Int128 V) {
  if (V == 0)
    return "0";
  bool Neg = V < 0;
  // Two's-complement magnitude; safe for INT128_MIN via unsigned negate.
  auto M = static_cast<unsigned __int128>(V);
  if (Neg)
    M = ~M + 1;
  char Buf[48];
  int I = 48;
  while (M != 0) {
    Buf[--I] = static_cast<char>('0' + static_cast<unsigned>(M % 10));
    M /= 10;
  }
  std::string Out;
  if (Neg)
    Out.push_back('-');
  Out.append(Buf + I, 48 - I);
  return Out;
}

//===----------------------------------------------------------------------===//
// CertWriter
//===----------------------------------------------------------------------===//

CertWriter::CertWriter() = default;

void CertWriter::line(const std::string &S) {
  Body += S;
  Body += '\n';
}

void CertWriter::meta(const std::string &Key, const std::string &Value) {
  line("m " + tok(Key) + " " + tok(Value));
}

uint64_t CertWriter::typeId(const TypeRef &Ty) {
  auto It = TypeIds.find(Ty->id());
  if (It != TypeIds.end())
    return It->second;
  // Children first (types are shallow; recursion is fine here).
  std::vector<uint64_t> Args;
  for (const TypeRef &A : Ty->args())
    Args.push_back(typeId(A));
  uint64_t Id = NextType++;
  TypeIds.emplace(Ty->id(), Id);
  Body += 'y';
  putU64(Body, Id);
  Body += Ty->isVar() ? " v" : " c";
  putTok(Body, Ty->name());
  for (uint64_t A : Args)
    putU64(Body, A);
  Body += '\n';
  return Id;
}

uint64_t CertWriter::termId(const TermRef &T) {
  {
    auto It = TermIds.find(T->id());
    if (It != TermIds.end())
      return It->second;
  }
  // Iterative post-order: terms reach program scale (left-nested bind
  // spines thousands of nodes deep), so no native recursion.
  std::vector<std::pair<const Term *, bool>> Stack;
  Stack.emplace_back(T.get(), false);
  while (!Stack.empty()) {
    auto [N, ChildrenDone] = Stack.back();
    Stack.pop_back();
    if (TermIds.count(N->id()))
      continue;
    if (!ChildrenDone) {
      Stack.emplace_back(N, true);
      if (N->kind() == Term::Kind::App) {
        Stack.emplace_back(N->argTerm().get(), false);
        Stack.emplace_back(N->fun().get(), false);
      } else if (N->kind() == Term::Kind::Lam) {
        Stack.emplace_back(N->body().get(), false);
      }
      continue;
    }
    // The type's records go out before this term's line.
    uint64_t TyId = N->isApp() || N->isBound() ? 0 : typeId(N->type());
    uint64_t Id = NextTerm++;
    std::string &B = Body;
    B += 't';
    putU64(B, Id);
    switch (N->kind()) {
    case Term::Kind::Const:
      B += " c";
      putTok(B, N->name());
      putU64(B, TyId);
      break;
    case Term::Kind::Free:
      B += " f";
      putTok(B, N->name());
      putU64(B, TyId);
      break;
    case Term::Kind::Var:
      B += " v";
      putTok(B, N->name());
      putU64(B, N->index());
      putU64(B, TyId);
      break;
    case Term::Kind::Bound:
      B += " b";
      putU64(B, N->index());
      break;
    case Term::Kind::Lam:
      B += " l";
      putTok(B, N->name());
      putU64(B, TyId);
      putU64(B, TermIds.at(N->body()->id()));
      break;
    case Term::Kind::App:
      B += " a";
      putU64(B, TermIds.at(N->fun()->id()));
      putU64(B, TermIds.at(N->argTerm()->id()));
      break;
    case Term::Kind::Num:
      B += " n ";
      B += int128Str(N->value());
      putU64(B, TyId);
      break;
    }
    B += '\n';
    TermIds.emplace(N->id(), Id);
  }
  return TermIds.at(T->id());
}

static bool
exportable(const DerivRef &Root,
           const std::unordered_map<const Deriv *, uint64_t> &Done) {
  std::vector<const Deriv *> Stack{Root.get()};
  std::unordered_set<const Deriv *> Seen;
  while (!Stack.empty()) {
    const Deriv *D = Stack.back();
    Stack.pop_back();
    if (!D || Done.count(D) || !Seen.insert(D).second)
      continue;
    switch (D->kind()) {
    case Deriv::Kind::Axiom:
      if (!D->concl() || !Inventory::instance().hasAxiom(D->name()))
        return false;
      break;
    case Deriv::Kind::Oracle:
      if (!D->concl())
        return false;
      break;
    case Deriv::Kind::Rule: {
      if (!D->concl())
        return false;
      const std::string &N = D->name();
      if ((N == "instantiate" || N == "spec") && !D->replay())
        return false;
      bool Known = false;
      for (const std::string &K : certRecordKinds())
        if (K == N) {
          Known = true;
          break;
        }
      if (!Known)
        return false;
      break;
    }
    }
    for (const DerivRef &P : D->premises())
      Stack.push_back(P.get());
  }
  return true;
}

bool CertWriter::derivId(const DerivRef &D, uint64_t &Out) {
  {
    auto It = DerivIds.find(D.get());
    if (It != DerivIds.end()) {
      Out = It->second;
      return true;
    }
  }
  if (!exportable(D, DerivIds))
    return false;

  // Iterative post-order over the derivation DAG (premises first; raw
  // pointers are safe — every node is kept alive by its parent, up to
  // the root DerivRef the caller holds).
  std::vector<std::pair<const Deriv *, bool>> Stack;
  Stack.emplace_back(D.get(), false);
  while (!Stack.empty()) {
    auto [N, PremsDone] = Stack.back();
    Stack.pop_back();
    if (DerivIds.count(N))
      continue;
    if (!PremsDone) {
      Stack.emplace_back(N, true);
      for (auto It = N->premises().rbegin(); It != N->premises().rend();
           ++It)
        Stack.emplace_back(It->get(), false);
      continue;
    }

    std::string Rec;
    const std::string &Name = N->name();
    if (N->kind() == Deriv::Kind::Axiom) {
      uint64_t P = termId(N->concl());
      Rec = "axiom";
      putTok(Rec, Name);
      putU64(Rec, P);
      Rec += ' ';
      Rec += Fingerprint::hex(certTermFingerprint(N->concl()));
    } else if (N->kind() == Deriv::Kind::Oracle) {
      Rec = "oracle";
      putTok(Rec, Name);
      putU64(Rec, termId(N->concl()));
    } else {
      std::vector<uint64_t> Prems;
      for (const DerivRef &P : N->premises())
        Prems.push_back(DerivIds.at(P.get()));
      // The record's kind and its premises' ids.
      auto Head = [&](size_t NumPrems) {
        Rec = Name;
        for (size_t I = 0; I != NumPrems; ++I)
          putU64(Rec, Prems.at(I));
      };

      if (Name == "trivial") {
        // Concl is P --> P; the record carries P.
        TermRef A, B;
        bool Ok = destImp(N->concl(), A, B);
        assert(Ok && "trivial conclusion is not an implication");
        (void)Ok;
        Head(0);
        putU64(Rec, termId(A));
      } else if (Name == "instantiate") {
        const Subst &S = N->replay()->S;
        Head(1);
        putU64(Rec, S.tyBindings().size());
        for (const auto &[TyName, Ty] : S.tyBindings()) {
          putTok(Rec, TyName);
          putU64(Rec, typeId(Ty));
        }
        putU64(Rec, S.tmBindings().size());
        for (const auto &[Key, Tm] : S.tmBindings()) {
          putTok(Rec, Key.first);
          putU64(Rec, Key.second);
          putU64(Rec, termId(Tm));
        }
      } else if (Name == "mp" || Name == "trans" || Name == "combination" ||
                 Name == "eqMp" || Name == "conjI") {
        Head(2);
      } else if (Name == "sym" || Name == "eqTrueIntro" ||
                 Name == "eqTrueElim") {
        Head(1);
      } else if (Name == "generalize") {
        // Concl is All (%x:Ty. body); binder name/type live on the Lam.
        TermRef Lam;
        bool Ok = destAll(N->concl(), Lam);
        assert(Ok && Lam->isLam() && "generalize conclusion is not All");
        (void)Ok;
        Head(1);
        putTok(Rec, Lam->name());
        putU64(Rec, typeId(Lam->type()));
      } else if (Name == "spec") {
        Head(1);
        putU64(Rec, termId(N->replay()->Witness));
      } else if (Name == "refl" || Name == "betaConv") {
        TermRef L, R;
        bool Ok = destEq(N->concl(), L, R);
        assert(Ok && "refl/betaConv conclusion is not an equality");
        (void)Ok;
        Head(0);
        putU64(Rec, termId(L));
      } else if (Name == "abstract") {
        TermRef L, R;
        bool Ok = destEq(N->concl(), L, R);
        assert(Ok && L->isLam() && "abstract conclusion is not a lam eq");
        (void)Ok;
        Head(1);
        putTok(Rec, L->name());
        putU64(Rec, typeId(L->type()));
      } else if (Name == "conjE") {
        // Which projection? Recoverable by comparing against the
        // premise's conjuncts (exactly the kernel's own side condition).
        TermRef L, R;
        bool Ok = destConj(N->premises()[0]->concl(), L, R);
        assert(Ok && "conjE premise is not a conjunction");
        (void)Ok;
        Head(1);
        Rec += termEq(N->concl(), L) ? " 0" : " 1";
      } else {
        return false; // unreachable: exportable() vetted the name
      }
    }
    uint64_t Id = NextDeriv++;
    DerivIds.emplace(N, Id);
    Body += 'd';
    putU64(Body, Id);
    Body += ' ';
    Body += Rec;
    Body += '\n';
  }
  Out = DerivIds.at(D.get());
  return true;
}

bool CertWriter::claim(const std::string &Name, const Thm &T) {
  if (!T.isValid() || !T.deriv())
    return false;
  uint64_t DId = 0;
  if (!derivId(T.deriv(), DId))
    return false;
  uint64_t PId = termId(T.prop());
  line("q " + u64Str(DId) + " " + tok(Name) + " " + u64Str(PId));
  ++NumClaims;
  return true;
}

std::string CertWriter::str() const {
  std::string Out = "acpc 1\n";
  Out += Body;
  Out += "end " + u64Str(NextType) + " " + u64Str(NextTerm) + " " +
         u64Str(NextDeriv) + " " + u64Str(NumClaims) + "\n";
  return Out;
}

bool CertWriter::write(const std::string &Path) const {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  std::string Data = str();
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), F) == Data.size();
  Ok = (std::fclose(F) == 0) && Ok;
  if (Ok)
    Ok = std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok)
    std::remove(Tmp.c_str());
  return Ok;
}

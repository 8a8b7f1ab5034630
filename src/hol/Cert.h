//===- Cert.h - Exportable proof certificates -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Proof-certificate export for the LCF kernel: the VeriPB-style
/// proof-logging discipline applied to refinement theorems. A run's trust
/// story today is "the kernel was exercised"; the derivation dies with
/// the process. Certificates make it survive: every primitive inference
/// of a theorem's derivation becomes one compact, streamable record —
/// rule tag, premise ids, and the instantiation payload needed to replay
/// it — and an independent checker (`tools/acpc`) re-derives every
/// conclusion from the leaves up, with no dependency on the parser, the
/// simplifier, or the abstraction engines. The trusted base of a
/// certified result is exactly: the checker (a few hundred lines), plus
/// the audited axiom/oracle leaves the certificate names.
///
/// Format (`.acpc`, line-oriented text, docs/PROTOCOL.md "Certificates"):
///
///   acpc 1                        header, version-gated
///   m :key :value                 metadata (function, fingerprint, ...)
///   y <id> v :name                type variable
///   y <id> c :name <argid>*       type constructor application
///   t <id> c :name <ty>           constant        | t <id> b <idx>  bound
///   t <id> f :name <ty>           free variable   | t <id> a <f> <x> app
///   t <id> v :name <idx> <ty>     schematic var   | t <id> n <val> <ty>
///   t <id> l :name <ty> <body>    lambda
///   d <id> axiom :name <prop> <hash16>            inventory leaf
///   d <id> oracle :name <prop>                    decision-procedure leaf
///   d <id> <rule> <premise-ids and payload...>    one primitive inference
///   q <deriv> :name <prop>        claim: derivation <deriv> proves <prop>
///   end <ny> <nt> <nd> <nq>       trailer (truncation detection)
///
/// Ids are dense and file-local (types, terms and derivations number
/// independently from 0), assigned in a deterministic walk — the same
/// theorem always serializes to the same bytes, at any job count.
/// Strings are `:`-prefixed, %XX-escaped tokens. Term and type records
/// form a hash-consed DAG: every distinct node is emitted once.
///
/// Recording cost is zero when disabled (one relaxed atomic load per
/// kernel inference, the Trace.h discipline): the kernel always threads
/// each Deriv's conclusion (an aliased arena pointer), and only attaches
/// the extra instantiation payloads — the substitution of `instantiate`,
/// the witness of `spec` — while `CertLog::enabled()`. Enable recording
/// *before* the runs whose theorems you want to export (acc/acd do this
/// at startup); axiom leaves never need payloads — the writer reads
/// their propositions from the audited Inventory.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_CERT_H
#define AC_HOL_CERT_H

#include "hol/Thm.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ac::hol {

/// Process-wide certificate-recording switch, Trace-style: off by
/// default, one relaxed atomic load per kernel inference when off.
/// Sticky once enabled — the daemon serves concurrent recorded requests,
/// so nobody may switch it off under a neighbour's run.
class CertLog {
public:
  /// True iff the kernel attaches replay payloads to new derivations.
  static bool enabled();
  /// Enables recording (idempotent). `AC_CERT` / `AC_CERT_DIR` in the
  /// environment enable it on first query.
  static void enable();
};

/// Canonical, process-independent structural fingerprint of a term
/// (FNV-1a over a length-prefixed encoding of the full structure,
/// including Free/Var types and Lam display names). This is the
/// `<hash16>` that binds an axiom leaf to the audited inventory: the
/// checker recomputes it from the certificate's own term records, and a
/// client compares the (name, hash) leaf set against a published
/// inventory audit.
uint64_t certTermFingerprint(const TermRef &T);
uint64_t certTypeFingerprint(const TypeRef &T);

/// Every record kind the format defines. The kernel-mutation suite is
/// closed over this registry (the ChaosTest site-registry pattern): a
/// kind listed here without a mutation operator driving it fails the
/// suite, as does an operator naming an unknown kind.
const std::vector<std::string> &certRecordKinds();

/// Serializes derivations into one certificate file. Usage:
///
///   CertWriter W;
///   W.meta("corpus", "echronos");
///   W.claim(FnName, Out.Pipeline);   // once per theorem, in order
///   W.write(Path);                   // or W.str() for the bytes
///
/// The writer walks each theorem's derivation DAG iteratively (premise
/// order, leaves first), interning types/terms/derivations into dense
/// file-local ids; nodes shared between theorems are emitted once, on
/// first reach. Output is buffered in memory and written atomically
/// (temp + rename), so a torn write can never look like a certificate.
class CertWriter {
public:
  CertWriter();

  /// Attaches a metadata record (order-preserving).
  void meta(const std::string &Key, const std::string &Value);

  /// Serializes \p T's derivation (new nodes only) and appends a claim
  /// record binding \p Name to its proposition. Returns false — leaving
  /// the certificate without the claim but still well-formed — when the
  /// derivation cannot be replayed: an `instantiate`/`spec` node was
  /// minted while recording was disabled, or an axiom leaf is missing
  /// from the Inventory.
  bool claim(const std::string &Name, const Thm &T);

  /// Number of claims appended so far.
  size_t claims() const { return NumClaims; }

  /// The complete certificate: header + records + trailer.
  std::string str() const;

  /// Writes str() to \p Path via temp-file + rename. Best-effort like
  /// Trace::flush: returns false on any I/O failure, never throws.
  bool write(const std::string &Path) const;

private:
  uint64_t typeId(const TypeRef &Ty);
  uint64_t termId(const TermRef &T);
  bool derivId(const DerivRef &D, uint64_t &Out);
  void line(const std::string &S);

  std::string Body;
  std::unordered_map<uint64_t, uint64_t> TypeIds; // intern id -> file id
  std::unordered_map<uint64_t, uint64_t> TermIds; // intern id -> file id
  std::unordered_map<const Deriv *, uint64_t> DerivIds;
  uint64_t NextType = 0, NextTerm = 0, NextDeriv = 0;
  size_t NumClaims = 0;
};

/// %XX-escapes a string for a `:`-prefixed certificate token.
std::string certEscape(const std::string &S);

} // namespace ac::hol

#endif // AC_HOL_CERT_H

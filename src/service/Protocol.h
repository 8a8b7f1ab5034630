//===- Protocol.h - Verification service wire protocol ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Message types of the `acd` verification service and their JSON
/// encoding. The wire format is length-prefixed JSON frames over a
/// Unix-domain stream socket; docs/PROTOCOL.md is the normative spec.
///
/// Requests carry an `op`: "check" (run the pipeline over one translation
/// unit, with per-request ACOptions), "stats" (live service metrics),
/// "ping" (liveness), "drain" (graceful shutdown, same as SIGTERM).
/// Responses share an envelope: `ok`, and on failure an `error` code with
/// optional `retry_after_ms` — the backpressure signal a client obeys
/// when the admission queue is full.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SERVICE_PROTOCOL_H
#define AC_SERVICE_PROTOCOL_H

#include "support/Json.h"

#include <string>
#include <vector>

namespace ac::service {

/// Wire protocol version, sent by clients and checked by the daemon.
constexpr unsigned ProtocolVersion = 1;

/// Machine-readable error codes of the response envelope.
enum class ErrorCode {
  None,
  Busy,       ///< admission queue full — retry after `retry_after_ms`
  Draining,   ///< daemon is shutting down, refuses new work
  BadRequest, ///< malformed frame / JSON / missing fields
  ParseError, ///< the C source failed to parse or translate
  Internal,   ///< pipeline threw; details in `message`
  /// The request's `timeout_ms` deadline elapsed before the pipeline
  /// finished. The daemon freed the request's queue slot; any in-flight
  /// work is discarded when it completes. Safe to retry (with a larger
  /// deadline) — or to fall back to an in-process run.
  DeadlineExceeded,
  /// TCP connection presented a wrong or missing auth token. The daemon
  /// answers this and closes the connection; never retried.
  AuthFailed,
  /// Load shedding: the daemon decided a bulk request could not complete
  /// within its deadline budget and answered immediately instead of
  /// letting it time out in queue. Interactive work is never shed.
  Shed,
};

const char *errorCodeName(ErrorCode E);
ErrorCode errorCodeFromName(const std::string &Name);

/// Admission priority of a check request. Interactive work (the default)
/// is served first; bulk work queues behind it and is the only class
/// eligible for staleness shedding under overload.
enum class Priority { Interactive, Bulk };

const char *priorityName(Priority P);

/// Constant-time string equality for auth-token checks: the running time
/// depends only on the lengths, never on where the strings first differ,
/// so a remote peer cannot binary-search the token byte by byte.
bool constantTimeEqual(const std::string &A, const std::string &B);

/// Reads an auth token from \p Path: the first line, with the trailing
/// newline (and CR) stripped. Returns false if the file cannot be read
/// or the token is empty.
bool readTokenFile(const std::string &Path, std::string &Token);

/// True when \p Id is safe to embed in filenames and log lines verbatim:
/// non-empty, at most 128 chars, `[A-Za-z0-9._-]` only (no '/' — no
/// traversal), and a leading alphanumeric (no dot-files, no
/// option-lookalikes). Every daemon that accepts a client-supplied
/// trace id applies this before using it.
bool pathSafeTraceId(const std::string &Id);

/// Mints a fresh trace id, unique per process: `<prefix>-<pid>-<seq>`.
std::string mintTraceId(const char *Prefix);

/// A "check" request: one translation unit plus per-request options
/// (mirroring core::ACOptions).
struct CheckRequest {
  std::string Source;
  std::vector<std::string> NoHeapAbs;
  std::vector<std::string> NoWordAbs;
  unsigned Jobs = 0;        ///< 0 = daemon default
  std::string CacheDir;     ///< "" = daemon default tier
  bool WantSpecs = false;   ///< include per-phase specs in the response
  unsigned DebugDelayMs = 0; ///< testing aid: hold the worker before running
  /// Per-request deadline in milliseconds, measured from admission; 0 =
  /// none. On expiry the daemon answers `deadline_exceeded` and frees the
  /// request's slot (queued work is cancelled, in-flight work discarded).
  unsigned TimeoutMs = 0;
  /// Correlation id echoed in the response, every structured log line
  /// the request produces, and the per-request trace filename (when the
  /// daemon runs with --trace-dir). "" lets the daemon mint one.
  std::string TraceId;
  /// Distributed-trace parent span id (decimal string of a 64-bit id),
  /// set by a router forwarding the request so the serving daemon's
  /// spans chain under the router's forward span. "" = no parent.
  std::string ParentSpan;
  /// Admission class. Interactive (the default) dequeues before bulk;
  /// bulk is eligible for staleness shedding when the queue is saturated.
  Priority Prio = Priority::Interactive;
  /// Accounting label for the per-tenant admitted/shed ledger; "" is
  /// the anonymous tenant (not tracked). Never changes admission.
  std::string Tenant;

  support::Json toJson() const;
  static bool fromJson(const support::Json &J, CheckRequest &Out,
                       std::string &Err);
};

/// Per-function payload of a successful "check" response.
struct FuncResult {
  std::string Name;
  std::string FinalKey; ///< FuncOutput::finalKey()
  bool HeapLifted = false;
  bool WordAbstracted = false;
  std::string Render;   ///< AutoCorres::render()
  std::string Pipeline; ///< composed theorem proposition
  /// Per-phase specs; only populated when the request set want_specs.
  std::string L1Spec, L2Spec, HLSpec, WASpec;
};

/// A "check" response (also used, without functions, as the generic
/// error envelope for every op).
struct CheckResponse {
  bool Ok = false;
  ErrorCode Err = ErrorCode::None;
  std::string Message;
  unsigned RetryAfterMs = 0;
  /// The request's correlation id (the client's, or daemon-minted when
  /// the request carried none). Present on success and failure alike so
  /// a rejected request can still be matched to its log lines.
  std::string TraceId;

  std::vector<FuncResult> Functions;
  std::vector<std::string> Diagnostics;

  /// Per-run statistics (subset of core::ACStats).
  unsigned SourceLines = 0;
  unsigned NumFunctions = 0;
  unsigned Jobs = 0;
  double ParseSeconds = 0;
  double AbstractWallSeconds = 0;
  /// Actual CPU time per phase: parse on its one thread, abstraction
  /// summed over worker threads (core::ACStats::AutoCorresSeconds) —
  /// what the daemon's acd_phase_*_cpu_seconds_total counters accumulate.
  double ParseCpuSeconds = 0;
  double AbstractCpuSeconds = 0;
  bool CacheEnabled = false;
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  unsigned CacheInvalidations = 0;
  unsigned CacheDroppedEntries = 0; ///< damaged entries dropped by recovery
  /// Proof-certificate accounting (core::ACStats; zero unless the run
  /// was asked to export certificates).
  unsigned CertsWritten = 0;
  unsigned CertClaims = 0;
  unsigned CertSkipped = 0;

  support::Json toJson() const;
  static bool fromJson(const support::Json &J, CheckResponse &Out,
                       std::string &Err);

  static CheckResponse error(ErrorCode E, const std::string &Msg,
                             unsigned RetryAfterMs = 0);
};

} // namespace ac::service

#endif // AC_SERVICE_PROTOCOL_H

//===- CheckRunner.cpp ----------------------------------------------------===//

#include "service/CheckRunner.h"

#include "core/AutoCorres.h"
#include "core/ResultCache.h"
#include "heapabs/HeapAbs.h"
#include "hol/Builder.h"
#include "hol/Generation.h"
#include "simpl/Program.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "wordabs/WordAbs.h"

#include <mutex>

using namespace ac::service;
using namespace ac::core;

namespace {

/// Builds, once and before the first request generation opens, what the
/// base store keeps for every check: WA's and HL's standard rule sets
/// and the term statics of hol and simpl. A static first built inside a
/// generation would point into freed memory once it closed.
void warmBaseStore() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    ac::wordabs::WordAbstraction::registerStandardRules();
    ac::heapabs::HeapAbstraction::registerStandardRules();
    (void)ac::hol::mkNot(ac::hol::mkFalse());
    (void)ac::hol::mkTrue();
    (void)ac::hol::mkUnit();
    (void)ac::simpl::exnReturn();
    (void)ac::simpl::exnBreak();
    (void)ac::simpl::exnContinue();
  });
}

} // namespace

CheckResponse ac::service::runCheck(const CheckRequest &Req,
                                    const CheckContext &Ctx) {
  warmBaseStore();
  ACOptions ACO;
  ACO.NoHeapAbs.insert(Req.NoHeapAbs.begin(), Req.NoHeapAbs.end());
  ACO.NoWordAbs.insert(Req.NoWordAbs.begin(), Req.NoWordAbs.end());
  ACO.Jobs = Ctx.Jobs ? Ctx.Jobs : support::ThreadPool::defaultJobs();
  ACO.SharedCache = Ctx.SharedCache;
  ACO.SharedPool = Ctx.SharedPool;
  ACO.TracePath = Ctx.TracePath;
  ACO.CertPath = Ctx.CertPath;
  ACO.CertDir = Ctx.CertDir;
  if (!Ctx.SharedCache)
    ACO.CacheDir = Req.CacheDir;

  CheckResponse Resp;
  ac::DiagEngine Diags;
  // Every term the check builds that the base store lacks dies with this
  // generation. The run is released inside it, and the response carries
  // strings only.
  ac::hol::GenerationScope Gen;
  std::unique_ptr<AutoCorres> AC;
  try {
    AC = AutoCorres::run(Req.Source, Diags, ACO);
  } catch (const std::exception &E) {
    Resp = CheckResponse::error(ErrorCode::Internal,
                                std::string("pipeline threw: ") + E.what());
  }

  if (AC) {
    // The response assembly and the release of the run it reads from.
    AC_SPAN("check.respond");
    Resp.Ok = true;
    const ACStats &St = AC->stats();
    for (const std::string &Name : AC->order()) {
      const FuncOutput *FO = AC->func(Name);
      if (!FO)
        continue;
      FuncResult F;
      F.Name = Name;
      F.FinalKey = FO->finalKey();
      F.HeapLifted = FO->HeapLifted;
      F.WordAbstracted = FO->WordAbstracted;
      F.Render = AC->render(Name);
      F.Pipeline = FO->pipelineProp();
      if (Req.WantSpecs) {
        F.L1Spec = FO->l1Spec();
        F.L2Spec = FO->l2Spec();
        F.HLSpec = FO->hlSpec();
        F.WASpec = FO->waSpec();
      }
      Resp.Functions.push_back(std::move(F));
    }
    Resp.SourceLines = St.SourceLines;
    Resp.NumFunctions = St.NumFunctions;
    Resp.Jobs = St.Jobs;
    Resp.ParseSeconds = St.ParserSeconds;
    Resp.AbstractWallSeconds = St.AutoCorresWallSeconds;
    Resp.ParseCpuSeconds = St.ParserCpuSeconds;
    Resp.AbstractCpuSeconds = St.AutoCorresSeconds;
    Resp.CacheEnabled = St.CacheEnabled;
    Resp.CacheHits = St.CacheHits;
    Resp.CacheMisses = St.CacheMisses;
    Resp.CacheInvalidations = St.CacheInvalidations;
    Resp.CacheDroppedEntries = St.CacheDroppedEntries;
    Resp.CertsWritten = St.CertsWritten;
    Resp.CertClaims = St.CertClaims;
    Resp.CertSkipped = St.CertSkipped;
    AC.reset();
  } else if (Resp.Err == ErrorCode::None) {
    Resp = CheckResponse::error(ErrorCode::ParseError,
                                "translation failed");
  }
  for (const ac::Diagnostic &D : Diags.diagnostics())
    Resp.Diagnostics.push_back(D.str());
  Resp.TraceId = Req.TraceId;
  if (!Resp.Ok)
    ac::support::Log::error("check.failed",
                            {{"trace_id", Req.TraceId},
                             {"error", errorCodeName(Resp.Err)},
                             {"message", Resp.Message}});
  return Resp;
}

CheckResponse ac::service::runLocalCheck(const CheckRequest &Req) {
  CheckContext Ctx;
  Ctx.Jobs = Req.Jobs;
  return runCheck(Req, Ctx);
}

namespace {

/// Does the daemon's answer justify running the pipeline locally?
bool shouldFallBack(const CheckResponse &Resp) {
  switch (Resp.Err) {
  case ErrorCode::Busy:             // retries exhausted
  case ErrorCode::Draining:         // daemon is going away
  case ErrorCode::DeadlineExceeded: // local run gets unbounded time
  case ErrorCode::Internal:         // daemon-side state may be wedged
    return true;
  case ErrorCode::None:
  case ErrorCode::BadRequest: // the request itself is broken
  case ErrorCode::ParseError: // the *source* is broken; local == same
  case ErrorCode::AuthFailed: // wrong token is a config error; a local
                              // run would mask it and it won't heal
  case ErrorCode::Shed:       // overload policy refused the work; doing
                              // it locally would bypass shedding
    return false;
  }
  return false;
}

} // namespace

CheckResponse ac::service::checkWithFallback(const Endpoint &E,
                                             const CheckRequest &Req,
                                             bool &UsedFallback,
                                             std::string &Note) {
  UsedFallback = false;
  Note.clear();

  std::string Why, Err;
  Client C = E.dial(Err);
  if (!C.connected()) {
    // A refused token is the daemon's typed answer, not an outage.
    if (Err.rfind(errorCodeName(ErrorCode::AuthFailed), 0) == 0)
      return CheckResponse::error(ErrorCode::AuthFailed, Err);
    Why = "daemon unreachable at " + E.name();
  } else {
    CheckResponse Resp;
    if (!C.checkRetry(Req, Resp, Err)) {
      // Transport failure mid-request: the daemon died under us (or a
      // frame was torn). The connection is unusable; run locally.
      Why = "daemon connection failed: " + Err;
    } else if (shouldFallBack(Resp)) {
      Why = std::string("daemon answered `") + errorCodeName(Resp.Err) +
            "`" + (Resp.Message.empty() ? "" : ": " + Resp.Message);
    } else {
      return Resp; // served (ok, or a typed error a local run would repeat)
    }
  }

  UsedFallback = true;
  Note = Why + "; falling back to in-process run";
  return runLocalCheck(Req);
}

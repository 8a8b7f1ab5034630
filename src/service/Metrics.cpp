//===- Metrics.cpp --------------------------------------------------------===//

#include "service/Metrics.h"

#include <cstdio>

using namespace ac::service;
using ac::support::Histogram;
using ac::support::Json;

namespace {

ServiceMetrics::HistStat readHist(const Histogram &H) {
  ServiceMetrics::HistStat S;
  S.Count = static_cast<uint64_t>(H.count());
  S.SumS = H.sum();
  S.P50S = H.quantile(0.50);
  S.P90S = H.quantile(0.90);
  S.P99S = H.quantile(0.99);
  return S;
}

Json histJson(const ServiceMetrics::HistStat &S) {
  Json J = Json::object();
  J.set("count", S.Count);
  J.set("sum_ms", S.SumS * 1e3);
  J.set("p50_ms", S.P50S * 1e3);
  J.set("p90_ms", S.P90S * 1e3);
  J.set("p99_ms", S.P99S * 1e3);
  return J;
}

void emitHeader(std::string &Out, const char *Name, const char *Help,
                const char *Type) {
  Out += "# HELP ";
  Out += Name;
  Out += ' ';
  Out += Help;
  Out += "\n# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

/// Emitter carrying the per-shard label set. Lbl is either empty or a
/// bare `shard_id="..."` pair; samples compose it into `{...}` (and
/// merge it with quantile labels) so an unlabeled render stays
/// byte-identical to the pre-fleet surface.
struct Emitter {
  std::string &Out;
  std::string Lbl;

  /// `name{lbl}` or plain `name`.
  std::string sample(const char *Name) const {
    return Lbl.empty() ? std::string(Name)
                       : std::string(Name) + "{" + Lbl + "}";
  }
  /// `name{lbl,Extra}` or `name{Extra}`.
  std::string sample(const char *Name, const std::string &Extra) const {
    return Lbl.empty() ? std::string(Name) + "{" + Extra + "}"
                       : std::string(Name) + "{" + Lbl + "," + Extra + "}";
  }

  void u64(const char *Name, const char *Help, const char *Type,
           uint64_t V) {
    emitHeader(Out, Name, Help, Type);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s %llu\n", sample(Name).c_str(),
                  static_cast<unsigned long long>(V));
    Out += Buf;
  }

  void f64(const char *Name, const char *Help, const char *Type,
           double V) {
    emitHeader(Out, Name, Help, Type);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n", sample(Name).c_str(), V);
    Out += Buf;
  }

  /// True Prometheus histogram: cumulative `le` buckets (the +Inf
  /// bucket closes on S.Count), _sum, _count. A bucket a sample
  /// actually landed in carries that sample's trace id as an
  /// OpenMetrics exemplar, so a slow bucket links straight to a trace.
  void histogram(const char *Name, const char *Help,
                 const ServiceMetrics::HistStat &S,
                 const uint64_t *Cumulative,
                 const std::vector<ServiceMetrics::Exemplar> &Ex) {
    emitHeader(Out, Name, Help, "histogram");
    std::string Bucket = std::string(Name) + "_bucket";
    char Buf[320];
    for (size_t I = 0; I != ServiceMetrics::NumHistBounds + 1; ++I) {
      bool Inf = I == ServiceMetrics::NumHistBounds;
      char Le[32];
      if (Inf)
        std::snprintf(Le, sizeof(Le), "le=\"+Inf\"");
      else
        std::snprintf(Le, sizeof(Le), "le=\"%g\"",
                      ServiceMetrics::HistBounds[I]);
      uint64_t V = Inf ? S.Count : Cumulative[I];
      std::string Line = sample(Bucket.c_str(), Le);
      std::snprintf(Buf, sizeof(Buf), "%s %llu", Line.c_str(),
                    static_cast<unsigned long long>(V));
      Out += Buf;
      if (I < Ex.size() && !Ex[I].TraceId.empty()) {
        std::snprintf(Buf, sizeof(Buf),
                      " # {trace_id=\"%s\"} %.6f",
                      Ex[I].TraceId.c_str(), Ex[I].Seconds);
        Out += Buf;
      }
      Out += '\n';
    }
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n",
                  sample((std::string(Name) + "_sum").c_str()).c_str(),
                  S.SumS);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s %llu\n",
                  sample((std::string(Name) + "_count").c_str()).c_str(),
                  static_cast<unsigned long long>(S.Count));
    Out += Buf;
  }

  void summary(const char *Name, const char *Help,
               const ServiceMetrics::HistStat &S) {
    emitHeader(Out, Name, Help, "summary");
    char Buf[224];
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n",
                  sample(Name, "quantile=\"0.5\"").c_str(), S.P50S);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n",
                  sample(Name, "quantile=\"0.9\"").c_str(), S.P90S);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n",
                  sample(Name, "quantile=\"0.99\"").c_str(), S.P99S);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s %.6f\n",
                  sample((std::string(Name) + "_sum").c_str()).c_str(),
                  S.SumS);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), "%s %llu\n",
                  sample((std::string(Name) + "_count").c_str()).c_str(),
                  static_cast<unsigned long long>(S.Count));
    Out += Buf;
  }
};

/// Index into the coarse exemplar/bucket ladder for one sample; the
/// +Inf bucket is NumHistBounds.
size_t coarseBucket(double Seconds) {
  for (size_t I = 0; I != ServiceMetrics::NumHistBounds; ++I)
    if (Seconds <= ServiceMetrics::HistBounds[I])
      return I;
  return ServiceMetrics::NumHistBounds;
}

} // namespace

void ServiceMetrics::noteRequest(const std::string &TraceId,
                                 const std::string &Tenant,
                                 const std::string &Priority, double TotalS,
                                 double WaitS, bool Ok) {
  {
    std::lock_guard<std::mutex> L(ExemplarM);
    TotalEx[coarseBucket(TotalS)] = {TraceId, TotalS};
    WaitEx[coarseBucket(WaitS)] = {TraceId, WaitS};
  }
  std::lock_guard<std::mutex> L(RecentM);
  RecentRequest R{TraceId, Tenant, Priority, TotalS, WaitS,
                  uptimeSeconds(), Ok};
  if (Recent.size() < RecentCap) {
    Recent.push_back(std::move(R));
  } else {
    Recent[RecentNext] = std::move(R);
    RecentNext = (RecentNext + 1) % RecentCap;
  }
}

ServiceMetrics::Snapshot
ServiceMetrics::snapshot(size_t QueueDepth, size_t QueueCapacity,
                         size_t InFlight, unsigned Workers,
                         size_t MemCacheEntries, bool Draining) const {
  Snapshot S;
  // The single clock sample for this render.
  S.UptimeS =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  S.Draining = Draining;
  S.Workers = Workers;
  S.QueueDepth = QueueDepth;
  S.QueueCapacity = QueueCapacity;
  S.InFlight = InFlight;
  S.InFlightPeak = InFlightPeak.load();
  S.Received = Received.load();
  S.Completed = Completed.load();
  S.Failed = Failed.load();
  S.Cancelled = Cancelled.load();
  S.DeadlineExceeded = DeadlineExceeded.load();
  S.Rejected = Rejected.load();
  S.Shed = Shed.load();
  {
    std::lock_guard<std::mutex> L(TenantM);
    for (const auto &[Name, C] : Tenants)
      S.Tenants.push_back({Name, C.Admitted, C.Shed});
  }
  S.CacheHits = CacheHits.load();
  S.CacheMisses = CacheMisses.load();
  S.CacheInvalidations = CacheInvalidations.load();
  S.MemCacheEntries = MemCacheEntries;
  S.ParseCpuMicros = ParseCpuMicros.load();
  S.AbstractCpuMicros = AbstractCpuMicros.load();
  S.Wait = readHist(WaitH);
  S.Parse = readHist(ParseH);
  S.Abstract = readHist(AbstractH);
  S.Total = readHist(TotalH);
  TotalH.cumulative(HistBounds, NumHistBounds, S.TotalBuckets);
  WaitH.cumulative(HistBounds, NumHistBounds, S.WaitBuckets);
  {
    std::lock_guard<std::mutex> L(ExemplarM);
    S.TotalExemplars.assign(TotalEx, TotalEx + NumHistBounds + 1);
    S.WaitExemplars.assign(WaitEx, WaitEx + NumHistBounds + 1);
  }
  {
    std::lock_guard<std::mutex> L(RecentM);
    // Unroll the ring into oldest-first order.
    for (size_t I = 0; I != Recent.size(); ++I)
      S.Recent.push_back(
          Recent[(RecentNext + I) % Recent.size()]);
  }
  return S;
}

Json ServiceMetrics::Snapshot::toJson() const {
  Json J = Json::object();
  J.set("ok", true);
  J.set("uptime_s", UptimeS);
  J.set("draining", Draining);
  J.set("workers", Workers);
  J.set("queue_depth", QueueDepth);
  J.set("queue_capacity", QueueCapacity);
  J.set("in_flight", InFlight);

  Json R = Json::object();
  R.set("received", Received);
  R.set("completed", Completed);
  R.set("failed", Failed);
  R.set("cancelled", Cancelled);
  R.set("deadline_exceeded", DeadlineExceeded);
  R.set("rejected", Rejected);
  R.set("auth_failed", AuthFailed);
  R.set("shed", Shed);
  R.set("in_flight_peak", InFlightPeak);
  J.set("requests", std::move(R));

  if (!Tenants.empty()) {
    Json T = Json::object();
    for (const TenantStat &S : Tenants) {
      Json TJ = Json::object();
      TJ.set("admitted", S.Admitted);
      TJ.set("shed", S.Shed);
      T.set(S.Name, std::move(TJ));
    }
    J.set("tenants", std::move(T));
  }

  Json L = Json::object();
  L.set("wait", histJson(Wait));
  L.set("parse", histJson(Parse));
  L.set("abstract", histJson(Abstract));
  L.set("total", histJson(Total));
  J.set("latency", std::move(L));

  Json Ph = Json::object();
  Ph.set("parse_cpu_s", static_cast<double>(ParseCpuMicros) * 1e-6);
  Ph.set("abstract_cpu_s", static_cast<double>(AbstractCpuMicros) * 1e-6);
  J.set("phase_time", std::move(Ph));

  Json C = Json::object();
  C.set("hits", CacheHits);
  C.set("misses", CacheMisses);
  C.set("invalidations", CacheInvalidations);
  C.set("mem_entries", MemCacheEntries);
  J.set("cache", std::move(C));

  if (!Recent.empty()) {
    Json A = Json::array();
    for (const RecentRequest &R : Recent) {
      Json RJ = Json::object();
      RJ.set("trace_id", R.TraceId);
      if (!R.Tenant.empty())
        RJ.set("tenant", R.Tenant);
      RJ.set("priority", R.Priority);
      RJ.set("total_ms", R.TotalS * 1e3);
      RJ.set("wait_ms", R.WaitS * 1e3);
      RJ.set("age_s", UptimeS - R.UptimeAtS);
      RJ.set("ok", R.Ok);
      A.push(std::move(RJ));
    }
    J.set("recent", std::move(A));
  }
  return J;
}

std::string
ServiceMetrics::Snapshot::toPrometheus(const std::string &ShardId,
                                       const std::string &Role) const {
  std::string O;
  O.reserve(4096);
  std::string Lbl;
  if (!ShardId.empty()) {
    Lbl = "shard_id=\"" + ShardId + "\"";
    if (!Role.empty())
      Lbl += ",role=\"" + Role + "\"";
  }
  Emitter E{O, Lbl};
  E.f64("acd_uptime_seconds", "Seconds since the daemon started.",
        "gauge", UptimeS);
  E.u64("acd_draining", "1 while the daemon refuses new work.", "gauge",
        Draining ? 1 : 0);
  E.u64("acd_workers", "Configured concurrent check sessions.", "gauge",
        Workers);
  E.u64("acd_queue_depth", "Check requests waiting for a worker.",
        "gauge", QueueDepth);
  E.u64("acd_queue_capacity", "Admission queue capacity.", "gauge",
        QueueCapacity);
  E.u64("acd_in_flight", "Check requests currently running.", "gauge",
        InFlight);
  E.u64("acd_in_flight_peak",
        "High-water mark of concurrently running check requests.",
        "gauge", InFlightPeak);

  E.u64("acd_requests_received_total", "Admitted check requests.",
        "counter", Received);
  E.u64("acd_requests_completed_total",
        "Requests that ran and delivered a success response.", "counter",
        Completed);
  E.u64("acd_requests_failed_total",
        "Requests that ran and delivered an error response.", "counter",
        Failed);
  E.u64("acd_requests_cancelled_total",
        "Requests abandoned by their client.", "counter", Cancelled);
  E.u64("acd_requests_deadline_exceeded_total",
        "Requests answered at their deadline.", "counter",
        DeadlineExceeded);
  E.u64("acd_requests_rejected_total",
        "Requests refused at admission (busy/draining).", "counter",
        Rejected);
  E.u64("acd_auth_failed_total",
        "TCP connections dropped for a wrong or missing auth token.",
        "counter", AuthFailed);
  E.u64("acd_requests_shed_total",
        "Requests refused by load shedding (stale bulk).", "counter",
        Shed);

  if (!Tenants.empty()) {
    emitHeader(O, "acd_tenant_admitted_total",
               "Admitted check requests per tenant.", "counter");
    char Buf[256];
    for (const TenantStat &T : Tenants) {
      std::snprintf(
          Buf, sizeof(Buf), "%s %llu\n",
          E.sample("acd_tenant_admitted_total", "tenant=\"" + T.Name + "\"")
              .c_str(),
          static_cast<unsigned long long>(T.Admitted));
      O += Buf;
    }
    emitHeader(O, "acd_tenant_shed_total",
               "Shed (stale bulk) check requests per tenant.",
               "counter");
    for (const TenantStat &T : Tenants) {
      std::snprintf(
          Buf, sizeof(Buf), "%s %llu\n",
          E.sample("acd_tenant_shed_total", "tenant=\"" + T.Name + "\"")
              .c_str(),
          static_cast<unsigned long long>(T.Shed));
      O += Buf;
    }
  }

  E.u64("acd_cache_hits_total", "Abstraction-cache hits.", "counter",
        CacheHits);
  E.u64("acd_cache_misses_total", "Abstraction-cache misses.", "counter",
        CacheMisses);
  E.u64("acd_cache_invalidations_total",
        "Abstraction-cache invalidations.", "counter", CacheInvalidations);
  E.u64("acd_cache_mem_entries",
        "Entries resident across in-memory cache tiers.", "gauge",
        MemCacheEntries);

  E.f64("acd_phase_parse_cpu_seconds_total",
        "Cumulative C parse CPU time over all completed runs.", "counter",
        static_cast<double>(ParseCpuMicros) * 1e-6);
  E.f64("acd_phase_abstract_cpu_seconds_total",
        "Cumulative abstraction CPU time, summed across worker "
        "threads, over all completed runs.",
        "counter", static_cast<double>(AbstractCpuMicros) * 1e-6);

  E.summary("acd_latency_wait_seconds",
            "Queue wait before a worker dequeued the request.", Wait);
  E.summary("acd_latency_parse_seconds",
            "C parse + translation time per request.", Parse);
  E.summary("acd_latency_abstract_seconds",
            "Abstraction pipeline wall time per request.", Abstract);
  E.summary("acd_latency_total_seconds",
            "Admission-to-response latency per request.", Total);

  E.histogram("acd_request_duration_seconds",
              "Admission-to-response latency distribution (cumulative "
              "buckets; slow buckets carry an exemplar trace id).",
              Total, TotalBuckets, TotalExemplars);
  E.histogram("acd_queue_wait_seconds",
              "Queue-wait distribution (cumulative buckets; slow "
              "buckets carry an exemplar trace id).",
              Wait, WaitBuckets, WaitExemplars);
  return O;
}

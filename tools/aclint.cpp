//===- aclint.cpp - Observability artifact lint ----------------------------===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Validates the artifacts the observability surface emits, so CI can
// assert their shape without a Chrome or Prometheus install:
//
//   aclint trace <file.json> [--require-span NAME]... [--min-wa N] [--min-hl N]
//               [--max-span-share NAME:PCT]...
//       The file parses as Chrome trace-event JSON (object form), every
//       event is a well-formed complete event, every --require-span name
//       occurs at least once, and the embedded ruleProfile carries at
//       least N word-abstraction / heap-abstraction rule rows. Each
//       --max-span-share asserts that the summed duration of spans with
//       that name is at most PCT percent of the whole trace extent —
//       the perf gate uses this to pin phase-share regressions.
//
//   aclint fleettrace <merged.json> [--min-pids N] [--expect-trace-id ID]
//       The file is a merged fleet trace (actrace output): every
//       trace-carrying event agrees on one trace id, the spans come from
//       at least N distinct pids, and every parent span reference
//       resolves to a recorded span — the cross-process request chain
//       has no orphans.
//
//   aclint metrics <file> [--require NAME]...        ("-" reads stdin)
//       The file is Prometheus text exposition format 0.0.4: every
//       sample line is `name[{labels}] value`, every sample's metric has
//       a preceding # TYPE of a known kind, summary quantile samples and
//       _sum/_count attach to a declared summary. Each --require NAME
//       asserts at least one sample of that metric is present — the
//       tier-1 gate uses this to pin the overload counters
//       (acd_requests_shed_total and friends) into the exposition.
//
//   aclint fleet <file.json> [--min-speedup X] [--min-hit-rate R]
//       The file is a BENCH_fleet.json as written by bench/fleet_throughput:
//       a baseline pass and one entry per shard count, each with a
//       positive requests/sec, ordered latency percentiles, zero
//       correctness diffs, and a remote-tier hit rate in [0,1].
//       --min-speedup bounds the 4-shard speedup from below;
//       --min-hit-rate applies to every multi-shard entry.
//
// Exit status: 0 clean, 1 lint findings (each printed on stderr), 2 usage.
//
//===----------------------------------------------------------------------===//

#include "flags.h"
#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using ac::support::Json;

namespace {

int Findings = 0;

void finding(const std::string &Msg) {
  std::fprintf(stderr, "aclint: %s\n", Msg.c_str());
  ++Findings;
}

bool readAll(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In.good())
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Reads and parses the JSON file at \p Path; a finding when it cannot.
bool readJson(const std::string &Path, Json &J) {
  std::string Text, Err;
  if (!readAll(Path, Text))
    finding("cannot read " + Path);
  else if (!Json::parse(Text, J, Err))
    finding(Path + ": not valid JSON: " + Err);
  else
    return true;
  return false;
}

/// readJson for a Chrome trace in object form.
bool readTrace(const std::string &Path, Json &J) {
  if (!readJson(Path, J))
    return false;
  if (J.isObject() && J.get("traceEvents").isArray())
    return true;
  finding(Path + ": no traceEvents array (not object-form Chrome JSON)");
  return false;
}

//===----------------------------------------------------------------------===//
// trace mode
//===----------------------------------------------------------------------===//

/// A `--max-span-share wordabs.fn:40` style bound, parsed up front.
struct SpanShareBound {
  std::string Name;
  double MaxPct;
};

int lintTrace(const std::string &Path,
              const std::vector<std::string> &RequiredSpans,
              unsigned MinWA, unsigned MinHL,
              const std::vector<SpanShareBound> &ShareBounds) {
  Json J;
  if (!readTrace(Path, J))
    return 1;

  std::set<std::string> Seen;
  std::map<std::string, double> SpanDur;
  double MinTs = 0, MaxEnd = 0;
  bool AnyEvent = false;
  size_t Idx = 0;
  for (const Json &E : J.get("traceEvents").items()) {
    std::string Where = Path + ": traceEvents[" + std::to_string(Idx++) + "]";
    if (!E.isObject()) {
      finding(Where + ": not an object");
      continue;
    }
    if (E.get("ph").asString() == "M") {
      // Metadata events (merged traces label pid lanes with these):
      // no ts/dur, but they must still say which process they name.
      if (!E.get("pid").isNumber())
        finding(Where + ": metadata event missing pid");
      if (!E.get("args").get("name").isString())
        finding(Where + ": metadata event missing args.name");
      continue;
    }
    if (!E.get("name").isString() || E.get("name").asString().empty())
      finding(Where + ": missing name");
    if (E.get("ph").asString() != "X")
      finding(Where + ": ph is not \"X\" (complete event)");
    if (!E.get("ts").isNumber() || E.get("ts").asNumber() < 0)
      finding(Where + ": bad ts");
    if (!E.get("dur").isNumber() || E.get("dur").asNumber() < 0)
      finding(Where + ": bad dur");
    if (!E.get("pid").isNumber() || !E.get("tid").isNumber())
      finding(Where + ": missing pid/tid");
    Seen.insert(E.get("name").asString());
    if (E.get("ts").isNumber() && E.get("dur").isNumber()) {
      double Ts = E.get("ts").asNumber(), Dur = E.get("dur").asNumber();
      SpanDur[E.get("name").asString()] += Dur;
      if (!AnyEvent || Ts < MinTs)
        MinTs = Ts;
      if (!AnyEvent || Ts + Dur > MaxEnd)
        MaxEnd = Ts + Dur;
      AnyEvent = true;
    }
  }

  for (const std::string &Name : RequiredSpans)
    if (!Seen.count(Name))
      finding(Path + ": required span `" + Name + "` never recorded");

  if (!ShareBounds.empty()) {
    double Extent = AnyEvent ? MaxEnd - MinTs : 0;
    if (Extent <= 0) {
      finding(Path + ": --max-span-share needs a non-empty trace");
    } else {
      for (const SpanShareBound &B : ShareBounds) {
        double Pct = 100.0 * SpanDur[B.Name] / Extent;
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf), "%s: span `%s` is %.1f%% of the trace",
                      Path.c_str(), B.Name.c_str(), Pct);
        if (Pct > B.MaxPct)
          finding(std::string(Buf) + ", bound is " +
                  std::to_string(B.MaxPct) + "%");
        else
          std::fprintf(stderr, "aclint: ok: %s (bound %.1f%%)\n", Buf,
                       B.MaxPct);
      }
    }
  }

  if (MinWA > 0 || MinHL > 0) {
    const Json &RP = J.get("ruleProfile");
    if (!RP.isObject()) {
      finding(Path + ": no ruleProfile object");
    } else {
      unsigned WA = 0, HL = 0;
      for (const auto &[Name, Stat] : RP.members()) {
        if (!Stat.isObject() || !Stat.get("fires").isNumber())
          finding(Path + ": ruleProfile." + Name + ": malformed row");
        if (Name.rfind("WA.", 0) == 0)
          ++WA;
        else if (Name.rfind("HL.", 0) == 0)
          ++HL;
      }
      if (WA < MinWA)
        finding(Path + ": ruleProfile has " + std::to_string(WA) +
                " word-abs rules, expected >= " + std::to_string(MinWA));
      if (HL < MinHL)
        finding(Path + ": ruleProfile has " + std::to_string(HL) +
                " heap-abs rules, expected >= " + std::to_string(MinHL));
    }
  }
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// fleettrace mode
//===----------------------------------------------------------------------===//

/// Lints a *merged* fleet trace (actrace output): all trace-carrying
/// events agree on one trace id, the spans come from at least
/// \p MinPids distinct processes, and every parent reference resolves
/// to a span recorded somewhere in the merged file — the cross-process
/// chain (router -> shard -> cache) has no orphans.
int lintFleettrace(const std::string &Path, unsigned MinPids,
                   const std::string &ExpectTraceId) {
  Json J;
  if (!readTrace(Path, J))
    return 1;

  std::set<std::string> TraceIds, Spans;
  std::set<double> Pids;
  std::vector<std::pair<std::string, std::string>> ParentRefs;
  size_t Carrying = 0, Idx = 0;
  for (const Json &E : J.get("traceEvents").items()) {
    std::string Where =
        Path + ": traceEvents[" + std::to_string(Idx++) + "]";
    if (!E.isObject() || E.get("ph").asString() == "M")
      continue;
    const Json &Args = E.get("args");
    const std::string &Span = Args.get("span").asString();
    if (!Span.empty())
      Spans.insert(Span);
    const std::string &Tid = Args.get("trace_id").asString();
    if (Tid.empty())
      continue;
    ++Carrying;
    TraceIds.insert(Tid);
    Pids.insert(E.get("pid").asNumber());
    if (Span.empty())
      finding(Where + ": trace-carrying event without a span id");
    const std::string &Par = Args.get("parent").asString();
    if (!Par.empty())
      ParentRefs.emplace_back(Where, Par);
  }

  if (Carrying == 0)
    finding(Path + ": no trace-carrying events at all");
  if (TraceIds.size() > 1) {
    std::string All;
    for (const std::string &T : TraceIds)
      All += (All.empty() ? "" : ", ") + T;
    finding(Path + ": " + std::to_string(TraceIds.size()) +
            " distinct trace ids (want one request, one id): " + All);
  }
  if (!ExpectTraceId.empty() && !TraceIds.count(ExpectTraceId))
    finding(Path + ": expected trace id `" + ExpectTraceId +
            "` never appears");
  if (Pids.size() < MinPids)
    finding(Path + ": spans come from " + std::to_string(Pids.size()) +
            " process(es), expected >= " + std::to_string(MinPids));
  for (const auto &[Where, Par] : ParentRefs)
    if (!Spans.count(Par))
      finding(Where + ": parent span `" + Par +
              "` not recorded anywhere in the merged trace");
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// metrics mode
//===----------------------------------------------------------------------===//

bool validMetricName(const std::string &N) {
  if (N.empty())
    return false;
  for (size_t I = 0; I != N.size(); ++I) {
    char C = N[I];
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              C == '_' || C == ':' || (I > 0 && C >= '0' && C <= '9');
    if (!Ok)
      return false;
  }
  return true;
}

int lintMetrics(const std::string &Path,
                const std::vector<std::string> &Require) {
  std::string Text;
  if (!readAll(Path, Text)) {
    finding("cannot read " + Path);
    return 1;
  }
  std::set<std::string> Typed, Summaries, Histograms, Sampled;
  std::istringstream Lines(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    std::string Where = Path + ":" + std::to_string(LineNo);
    if (Line.empty())
      continue;
    if (Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream T(Line.substr(7));
      std::string Name, Kind;
      T >> Name >> Kind;
      if (!validMetricName(Name))
        finding(Where + ": bad metric name in TYPE: " + Name);
      if (Kind != "counter" && Kind != "gauge" && Kind != "summary" &&
          Kind != "histogram" && Kind != "untyped")
        finding(Where + ": unknown TYPE kind: " + Kind);
      if (Typed.count(Name))
        finding(Where + ": duplicate TYPE for " + Name);
      Typed.insert(Name);
      if (Kind == "summary")
        Summaries.insert(Name);
      if (Kind == "histogram")
        Histograms.insert(Name);
      continue;
    }
    if (Line[0] == '#')
      continue; // HELP and free comments
    // An OpenMetrics exemplar rides after ` # ` on the sample line:
    // `name{...} value # {trace_id="..."} exemplar_value`. Split it off
    // and lint both halves.
    std::string Sample = Line;
    size_t ExPos = Line.find(" # ");
    if (ExPos != std::string::npos) {
      Sample = Line.substr(0, ExPos);
      std::string Ex = Line.substr(ExPos + 3);
      size_t Close = Ex.rfind("} ");
      if (Ex.empty() || Ex[0] != '{' || Close == std::string::npos) {
        finding(Where + ": malformed exemplar: " + Ex);
      } else {
        std::string EV = Ex.substr(Close + 2);
        char *EEnd = nullptr;
        std::strtod(EV.c_str(), &EEnd);
        if (EEnd == EV.c_str() || *EEnd != '\0')
          finding(Where + ": unparsable exemplar value: " + EV);
      }
    }
    size_t Sp = Sample.rfind(' ');
    if (Sp == std::string::npos) {
      finding(Where + ": sample line has no value: " + Sample);
      continue;
    }
    std::string Value = Sample.substr(Sp + 1);
    char *End = nullptr;
    std::strtod(Value.c_str(), &End);
    if (End == Value.c_str() || *End != '\0')
      finding(Where + ": unparsable sample value: " + Value);

    std::string Name = Sample.substr(0, Sample.find_first_of("{ "));
    if (!validMetricName(Name)) {
      finding(Where + ": bad metric name: " + Name);
      continue;
    }
    Sampled.insert(Name);
    // A summary's or histogram's _sum/_count samples belong to the
    // declared base; a histogram additionally owns its _bucket series.
    std::string Base = Name;
    for (const char *Suffix : {"_sum", "_count"}) {
      size_t L = Name.size(), SL = std::strlen(Suffix);
      if (L > SL && Name.compare(L - SL, SL, Suffix) == 0 &&
          (Summaries.count(Name.substr(0, L - SL)) ||
           Histograms.count(Name.substr(0, L - SL))))
        Base = Name.substr(0, L - SL);
    }
    {
      size_t L = Name.size(), SL = std::strlen("_bucket");
      if (L > SL && Name.compare(L - SL, SL, "_bucket") == 0 &&
          Histograms.count(Name.substr(0, L - SL))) {
        Base = Name.substr(0, L - SL);
        if (Sample.find("le=\"") == std::string::npos)
          finding(Where + ": histogram bucket without le label: " + Sample);
      }
    }
    Sampled.insert(Base); // --require on a histogram/summary base name
    if (!Typed.count(Base))
      finding(Where + ": sample without preceding TYPE: " + Name);
    if (Base == Name && Summaries.count(Name) &&
        Sample.find("quantile=\"") == std::string::npos)
      finding(Where + ": summary sample without quantile label: " + Sample);
    if (Base == Name && Histograms.count(Name))
      finding(Where + ": histogram base sample without a suffix: " + Sample);
  }
  if (Typed.empty())
    finding(Path + ": no metrics at all");
  for (const std::string &Name : Require)
    if (!Sampled.count(Name))
      finding(Path + ": required metric `" + Name + "` has no sample");
  return Findings ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// fleet mode
//===----------------------------------------------------------------------===//

/// Shape-checks one measured pass (the baseline or a per-shard-count
/// entry): positive throughput, ordered percentiles, no lost requests.
void lintFleetPass(const std::string &Where, const Json &P) {
  if (!P.isObject()) {
    finding(Where + ": not an object");
    return;
  }
  if (!P.get("requests_per_sec").isNumber() ||
      P.get("requests_per_sec").asNumber() <= 0)
    finding(Where + ": requests_per_sec missing or not positive");
  if (!P.get("p50_ms").isNumber() || !P.get("p99_ms").isNumber())
    finding(Where + ": missing p50_ms/p99_ms");
  else if (P.get("p50_ms").asNumber() > P.get("p99_ms").asNumber())
    finding(Where + ": p50_ms exceeds p99_ms");
  if (!P.get("ok").isNumber() || !P.get("requests").isNumber())
    finding(Where + ": missing ok/requests counts");
  else if (P.get("ok").asNumber() != P.get("requests").asNumber())
    finding(Where + ": " + std::to_string(static_cast<long long>(
                               P.get("requests").asNumber() -
                               P.get("ok").asNumber())) +
            " requests lost");
  if (!P.get("diffs").isNumber() || P.get("diffs").asNumber() != 0)
    finding(Where + ": correctness diffs recorded");
}

int lintFleet(const std::string &Path, double MinSpeedup,
              double MinHitRate) {
  Json J;
  if (!readJson(Path, J))
    return 1;
  if (!J.isObject() || J.get("bench").asString() != "fleet_throughput") {
    finding(Path + ": not a fleet_throughput artifact");
    return 1;
  }
  lintFleetPass(Path + ": baseline", J.get("baseline"));
  const Json &Fleets = J.get("fleets");
  if (!Fleets.isArray() || Fleets.items().empty()) {
    finding(Path + ": no fleets array");
    return 1;
  }
  double PrevShards = 0;
  size_t Idx = 0;
  for (const Json &F : Fleets.items()) {
    std::string Where = Path + ": fleets[" + std::to_string(Idx++) + "]";
    lintFleetPass(Where, F);
    if (!F.isObject())
      continue;
    if (!F.get("shards").isNumber() || F.get("shards").asNumber() < 1)
      finding(Where + ": bad shard count");
    else {
      double Shards = F.get("shards").asNumber();
      if (Shards <= PrevShards)
        finding(Where + ": shard counts not strictly increasing");
      PrevShards = Shards;
    }
    if (!F.get("remote_hit_rate").isNumber() ||
        F.get("remote_hit_rate").asNumber() < 0 ||
        F.get("remote_hit_rate").asNumber() > 1)
      finding(Where + ": remote_hit_rate not in [0,1]");
    else if (MinHitRate > 0 && F.get("shards").asNumber() > 1 &&
             F.get("remote_hit_rate").asNumber() < MinHitRate)
      finding(Where + ": remote_hit_rate " +
              std::to_string(F.get("remote_hit_rate").asNumber()) +
              " below bound " + std::to_string(MinHitRate));
  }
  if (!J.get("speedup_at_4").isNumber())
    finding(Path + ": missing speedup_at_4");
  else if (MinSpeedup > 0 &&
           J.get("speedup_at_4").asNumber() < MinSpeedup)
    finding(Path + ": speedup_at_4 " +
            std::to_string(J.get("speedup_at_4").asNumber()) +
            " below bound " + std::to_string(MinSpeedup));
  return Findings ? 1 : 0;
}

void usage(const char *) {
  std::fprintf(
      stderr,
      "usage: aclint trace <file.json> [--require-span NAME]...\n"
      "              [--min-wa N] [--min-hl N] [--max-span-share NAME:PCT]...\n"
      "       aclint fleettrace <file.json> [--min-pids N]\n"
      "              [--expect-trace-id ID]\n"
      "       aclint metrics <file|-> [--require NAME]...\n"
      "       aclint fleet <file.json> [--min-speedup X] [--min-hit-rate R]\n");
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3) {
    usage(argv[0]);
    return 2;
  }
  std::string Mode = argv[1], Path = argv[2];
  std::vector<std::string> Names; // required spans or metrics
  std::vector<SpanShareBound> ShareBounds;
  unsigned MinWA = 0, MinHL = 0, MinPids = 0;
  double MinSpeedup = 0, MinHitRate = 0;
  std::string ExpectTraceId;
  // The mode's own flags follow the mode and the path; any other flag,
  // --help included, prints the usage.
  ac::tools::Flags Flags("aclint", usage, argc - 2, argv + 2);
  int RC = Flags.parse([&](const std::string &A) {
    using ac::tools::Flag;
    if (Mode == "trace") {
      if (A == "--require-span")
        return Flags.add(Names);
      if (A == "--min-wa")
        return Flags.num(MinWA);
      if (A == "--min-hl")
        return Flags.num(MinHL);
      if (A == "--max-span-share") {
        std::string Spec;
        Flag F = Flags.str(Spec);
        if (F != Flag::Taken)
          return F;
        size_t Colon = Spec.rfind(':');
        if (Colon == std::string::npos || Colon == 0) {
          std::fprintf(stderr, "aclint: --max-span-share wants NAME:PCT\n");
          return Flag::Failed;
        }
        SpanShareBound B{Spec.substr(0, Colon), 0};
        if (!ac::tools::parseDecimal(Spec.c_str() + Colon + 1, B.MaxPct))
          return Flag::Unknown;
        ShareBounds.push_back(B);
        return Flag::Taken;
      }
    } else if (Mode == "fleettrace") {
      if (A == "--min-pids")
        return Flags.num(MinPids);
      if (A == "--expect-trace-id")
        return Flags.str(ExpectTraceId);
    } else if (Mode == "metrics") {
      if (A == "--require")
        return Flags.add(Names);
    } else if (Mode == "fleet") {
      if (A == "--min-speedup")
        return Flags.decimal(MinSpeedup);
      if (A == "--min-hit-rate")
        return Flags.decimal(MinHitRate);
    }
    return Flag::Usage;
  });
  if (RC >= 0)
    return RC;
  if (Mode == "trace")
    return lintTrace(Path, Names, MinWA, MinHL, ShareBounds);
  if (Mode == "fleettrace")
    return lintFleettrace(Path, MinPids, ExpectTraceId);
  if (Mode == "metrics")
    return lintMetrics(Path, Names);
  if (Mode == "fleet")
    return lintFleet(Path, MinSpeedup, MinHitRate);
  usage(argv[0]);
  return 2;
}

//===- JsonTest.cpp - Wire-format building blocks ---------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the service's wire-format building blocks: the JSON value /
/// parser / serializer (round-trips, escapes, strictness on malformed
/// input, and the exact bytes and error messages, pinned) and the
/// log-bucketed latency histogram behind the daemon's p50/p90/p99
/// metrics.
///
//===----------------------------------------------------------------------===//

#include "core/ResultCache.h"
#include "corpus/Synthetic.h"
#include "service/CheckRunner.h"
#include "support/Fingerprint.h"
#include "support/Histogram.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace ac::support;

namespace {

Json parseOk(const std::string &Text) {
  Json J;
  std::string Err;
  EXPECT_TRUE(Json::parse(Text, J, Err)) << Text << ": " << Err;
  return J;
}

void expectParseFails(const std::string &Text) {
  Json J;
  std::string Err;
  EXPECT_FALSE(Json::parse(Text, J, Err)) << "accepted: " << Text;
}

} // namespace

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(parseOk("null").kind(), Json::Kind::Null);
  EXPECT_TRUE(parseOk("true").asBool());
  EXPECT_FALSE(parseOk("false").asBool(true));
  EXPECT_EQ(parseOk("42").asInt(), 42);
  EXPECT_EQ(parseOk("-7").asInt(), -7);
  EXPECT_DOUBLE_EQ(parseOk("2.5e3").asNumber(), 2500.0);
  EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  // Byte-stable framing depends on this: 3 must not re-serialize as
  // 3.0 after a decode/encode hop.
  EXPECT_EQ(Json(3).dump(), "3");
  EXPECT_EQ(Json(uint64_t(1) << 40).dump(), "1099511627776");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(parseOk("17").dump(), "17");
}

TEST(Json, StringEscapes) {
  Json J = parseOk(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(J.asString(), "a\"b\\c\nd\teA");
  // Control characters and quotes re-escape on dump.
  EXPECT_EQ(Json("x\n\"y\"").dump(), R"("x\n\"y\"")");
  // Non-ASCII UTF-8 passes through untouched.
  EXPECT_EQ(parseOk("\"\xC3\xA9\"").asString(), "\xC3\xA9");
  // \u escapes outside ASCII decode to UTF-8.
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xC3\xA9");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json J = Json::object();
  J.set("zeta", 1);
  J.set("alpha", 2);
  J.set("mid", Json::array());
  EXPECT_EQ(J.dump(), R"({"zeta":1,"alpha":2,"mid":[]})");
  // Overwriting a key keeps its original position.
  J.set("zeta", 9);
  EXPECT_EQ(J.dump(), R"({"zeta":9,"alpha":2,"mid":[]})");
}

TEST(Json, NestedRoundTrip) {
  const std::string Text =
      R"({"v":1,"op":"check","options":{"jobs":4,"no_heap_abs":["f","g"]},"ok":true})";
  Json J = parseOk(Text);
  EXPECT_EQ(J.get("op").asString(), "check");
  EXPECT_EQ(J.get("options").get("jobs").asInt(), 4);
  ASSERT_EQ(J.get("options").get("no_heap_abs").items().size(), 2u);
  EXPECT_EQ(J.get("options").get("no_heap_abs").items()[1].asString(), "g");
  // Missing keys are a null value, not a crash.
  EXPECT_TRUE(J.get("nope").isNull());
  EXPECT_EQ(J.dump(), Text); // insertion order == source order
}

TEST(Json, RejectsMalformedInput) {
  expectParseFails("");
  expectParseFails("{");
  expectParseFails("[1,]");
  expectParseFails("{\"a\":}");
  expectParseFails("{\"a\" 1}");
  expectParseFails("nul");
  expectParseFails("\"unterminated");
  expectParseFails("\"bad\\q\"");
  expectParseFails("01");
  expectParseFails("1 trailing");
  expectParseFails("{} {}");
}

TEST(Json, ParsesItsOwnDump) {
  Json J = Json::object();
  J.set("s", "line1\nline2 \"quoted\"");
  Json A = Json::array();
  for (int I = -3; I != 4; ++I)
    A.push(I);
  A.push(true);
  A.push(nullptr);
  J.set("mixed", std::move(A));
  Json Back = parseOk(J.dump());
  EXPECT_EQ(Back.dump(), J.dump());
  EXPECT_EQ(Back.get("s").asString(), "line1\nline2 \"quoted\"");
}

//===----------------------------------------------------------------------===//
// Pinned wire bytes
//===----------------------------------------------------------------------===//

namespace {

/// Every byte value in order, between and beside long runs of bytes that
/// need no escape.
std::string allBytesString() {
  std::string S(300, 'a');
  for (int C = 0; C != 256; ++C)
    S += static_cast<char>(C);
  S += std::string(200, 'z');
  S += "tab\tquote\"back\\slash\nnl\rcr\bbs\fff\x01\x1f end \xC3\xA9";
  return S;
}

/// The escaped text of bytes 0x00..0xff in order.
const char AllBytesDumped[] =
    "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
    "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
    "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
    "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
    " !\\\"#$%&'()*+,-./0123456789:;<=>?"
    "@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_"
    "`abcdefghijklmnopqrstuvwxyz{|}~\x7f"
    "\x80\x81\x82\x83\x84\x85\x86\x87\x88\x89\x8a\x8b\x8c\x8d\x8e\x8f"
    "\x90\x91\x92\x93\x94\x95\x96\x97\x98\x99\x9a\x9b\x9c\x9d\x9e\x9f"
    "\xa0\xa1\xa2\xa3\xa4\xa5\xa6\xa7\xa8\xa9\xaa\xab\xac\xad\xae\xaf"
    "\xb0\xb1\xb2\xb3\xb4\xb5\xb6\xb7\xb8\xb9\xba\xbb\xbc\xbd\xbe\xbf"
    "\xc0\xc1\xc2\xc3\xc4\xc5\xc6\xc7\xc8\xc9\xca\xcb\xcc\xcd\xce\xcf"
    "\xd0\xd1\xd2\xd3\xd4\xd5\xd6\xd7\xd8\xd9\xda\xdb\xdc\xdd\xde\xdf"
    "\xe0\xe1\xe2\xe3\xe4\xe5\xe6\xe7\xe8\xe9\xea\xeb\xec\xed\xee\xef"
    "\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8\xf9\xfa\xfb\xfc\xfd\xfe\xff";

std::string parseError(const std::string &Text) {
  Json J;
  std::string Err;
  EXPECT_FALSE(Json::parse(Text, J, Err)) << "accepted: " << Text;
  return Err;
}

} // namespace

TEST(Json, AllByteValuesDumpToPinnedText) {
  const std::string S = allBytesString();
  const std::string Want =
      "\"" + std::string(300, 'a') + AllBytesDumped + std::string(200, 'z') +
      "tab\\tquote\\\"back\\\\slash\\nnl\\rcr\\bbs\\fff\\u0001\\u001f end "
      "\xC3\xA9\"";
  EXPECT_EQ(Json(S).dump(), Want);
  EXPECT_EQ(parseOk(Want).asString(), S);
  // As an object key and inside an array, the same bytes.
  Json O = Json::object();
  O.set(S, Json::array());
  O.set("k", Json::array());
  Json A = Json::array();
  A.push(S);
  A.push("");
  O.set("k", std::move(A));
  EXPECT_EQ(O.dump(), "{" + Want + ":[],\"k\":[" + Want + ",\"\"]}");
  Json Back = parseOk(O.dump());
  ASSERT_EQ(Back.members().size(), 2u);
  EXPECT_EQ(Back.members()[0].first, S);
  EXPECT_EQ(Back.get("k").items()[0].asString(), S);
  // Escapes a dump never writes still decode.
  EXPECT_EQ(parseOk(R"("a\/b\u0041\u00e9\u20ac\"")").asString(),
            "a/bA\xC3\xA9\xE2\x82\xAC\"");
}

TEST(Json, StringErrorMessagesArePinned) {
  EXPECT_EQ(parseError("\"abc"), "unterminated string");
  EXPECT_EQ(parseError(std::string("\"ab") + std::string(1000, 'x')),
            "unterminated string");
  EXPECT_EQ(parseError("\"a\x01z\""), "raw control character in string");
  EXPECT_EQ(parseError("\"tab\there\""), "raw control character in string");
  EXPECT_EQ(parseError("\"bad\\q\""), "unknown escape");
  EXPECT_EQ(parseError("\"bad\\u12g4\""), "bad \\u escape");
  EXPECT_EQ(parseError("\"cut\\u12"), "truncated \\u escape");
  EXPECT_EQ(parseError("\"cut\\"), "truncated escape");
  EXPECT_EQ(parseError("{\"k\\x\":1}"), "unknown escape");
  EXPECT_EQ(parseError("[\"ok\",\"no"), "unterminated string");
}

/// The reply to a full check of the CapDL-scale unit (163 functions,
/// every spec on), with the timings zeroed: a digest of its dump taken
/// before the single-buffer serializer, and the round trip of its bytes.
TEST(Json, CapdlCheckResponseBytesArePinned) {
  ac::service::CheckRequest Req;
  Req.Source = ac::corpus::generateSyntheticProgram(ac::corpus::capdlScale());
  Req.WantSpecs = true;
  ac::core::ResultCache Memory("");
  ac::service::CheckContext Ctx;
  Ctx.Jobs = 1;
  Ctx.SharedCache = &Memory;
  ac::service::CheckResponse Resp = ac::service::runCheck(Req, Ctx);
  ASSERT_TRUE(Resp.Ok) << Resp.Message;
  Resp.ParseSeconds = Resp.AbstractWallSeconds = 0;
  Resp.ParseCpuSeconds = Resp.AbstractCpuSeconds = 0;
  const std::string Wire = Resp.toJson().dump();
  Fingerprint FP;
  FP.str(Wire);
  EXPECT_EQ(Wire.size(), 1110274u);
  EXPECT_EQ(Fingerprint::hex(FP.digest()), "2b8e2da4b53f715c");
  EXPECT_EQ(parseOk(Wire).dump(), Wire);
}

//===----------------------------------------------------------------------===//
// Fuzz corpus: mutated wire payloads
//===----------------------------------------------------------------------===//

namespace {

/// The canonical payloads from docs/PROTOCOL.md — the exact shapes a
/// confused or malicious peer would start from before the bytes went
/// wrong in transit.
const char *const WirePayloads[] = {
    R"({"v":1,"op":"check","source":"unsigned max(unsigned a, unsigned b) { return a < b ? b : a; }","options":{"no_heap_abs":["f","g"],"no_word_abs":["h"],"jobs":4,"cache_dir":"/path/to/cache"},"want_specs":true,"timeout_ms":2000})",
    R"({"v":1,"op":"stats"})",
    R"({"v":1,"op":"ping"})",
    R"({"v":1,"op":"drain"})",
    R"json({"ok":true,"functions":[{"name":"max","final":"wa:max","heap_lifted":false,"word_abstracted":true,"render":"max' a b ==\nreturn (if a < b then b else a)","pipeline":"ac_corres (return (if a < b then b else a)) SIMPL[max]","specs":{"l1":"...","l2":"...","hl":"","wa":"..."}}],"diagnostics":[],"stats":{"source_lines":4,"functions":1,"jobs":1,"parse_s":0.001,"abstract_wall_s":0.002,"cache_enabled":true,"cache_hits":0,"cache_misses":1,"cache_invalidations":0,"cache_dropped":0}})json",
    R"({"ok":false,"error":"busy","message":"queue full","retry_after_ms":50})",
    R"({"ok":false,"error":"deadline_exceeded","message":"deadline of 100 ms exceeded"})",
    R"({"ok":true,"uptime_s":12.3,"draining":false,"workers":2,"queue_depth":0,"queue_capacity":8,"in_flight":1,"requests":{"received":10,"completed":8,"failed":1,"cancelled":1,"rejected":2,"deadline_exceeded":0}})",
};

/// One deterministic byte-level mutation. The shapes mirror what torn
/// frames, bad length prefixes, and bit rot actually produce.
std::string mutate(const std::string &Base, std::minstd_rand &Rng) {
  std::string S = Base;
  switch (Rng() % 6) {
  case 0: // truncate anywhere (a torn frame)
    S.resize(Rng() % (S.size() + 1));
    break;
  case 1: // flip one bit
    if (!S.empty())
      S[Rng() % S.size()] ^= static_cast<char>(1u << (Rng() % 8));
    break;
  case 2: // delete one byte
    if (!S.empty())
      S.erase(S.begin() + Rng() % S.size());
    break;
  case 3: // insert a random byte (including NUL and controls)
    S.insert(S.begin() + Rng() % (S.size() + 1),
             static_cast<char>(Rng() % 256));
    break;
  case 4: // duplicate a span
    if (!S.empty()) {
      size_t At = Rng() % S.size();
      size_t N = 1 + Rng() % std::min<size_t>(16, S.size() - At);
      S.insert(At, S.substr(At, N));
    }
    break;
  default: // swap two bytes
    if (S.size() >= 2) {
      size_t A = Rng() % S.size(), B = Rng() % S.size();
      std::swap(S[A], S[B]);
    }
    break;
  }
  return S;
}

} // namespace

/// A daemon must survive any bytes a peer can put in a frame: 200
/// deterministic mutations of the PROTOCOL.md example payloads. Every
/// mutant must either be rejected with an error message, or — when the
/// mutation happened to keep the text well-formed — parse to a value
/// whose dump() round-trips. Never a crash, never a hang, and on
/// rejection the output value must be reset to null, not left holding
/// partially-parsed state.
TEST(Json, SurvivesMutatedWirePayloads) {
  std::minstd_rand Rng(20140604); // fixed seed: failures must replay
  const size_t NumPayloads = sizeof(WirePayloads) / sizeof(WirePayloads[0]);
  size_t Rejected = 0, Accepted = 0;
  for (int I = 0; I != 200; ++I) {
    const std::string Base = WirePayloads[I % NumPayloads];
    const std::string Mutant = mutate(Base, Rng);
    Json J(42); // poison: must not survive a failed parse
    std::string Err;
    if (!Json::parse(Mutant, J, Err)) {
      EXPECT_FALSE(Err.empty())
          << "rejection must say why; input: " << Mutant;
      EXPECT_TRUE(J.isNull())
          << "failed parse must not leak partial state; input: " << Mutant;
      ++Rejected;
      continue;
    }
    ++Accepted;
    // A survivor must at least be internally consistent.
    Json Back;
    ASSERT_TRUE(Json::parse(J.dump(), Back, Err))
        << "dump of accepted mutant does not re-parse: " << J.dump();
    EXPECT_EQ(Back.dump(), J.dump());
  }
  // Byte-level damage to tightly-structured JSON should almost always
  // be fatal; a mostly-accepting parser would mean the corpus (or the
  // parser) is broken.
  EXPECT_GT(Rejected, Accepted);
  EXPECT_GT(Rejected, 100u);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, EmptyIsAllZero) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0);
}

TEST(Histogram, QuantilesBracketTheSamples) {
  Histogram H;
  // 90 fast samples at ~1ms, 10 slow at ~1s: p50 must look like the
  // fast cluster, p99 like the slow one. Log bucketing gives ~9%
  // relative error, so compare with generous brackets.
  for (int I = 0; I != 90; ++I)
    H.record(0.001);
  for (int I = 0; I != 10; ++I)
    H.record(1.0);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_NEAR(H.sum(), 10.09, 0.05);
  EXPECT_GT(H.quantile(0.50), 0.0005);
  EXPECT_LT(H.quantile(0.50), 0.002);
  EXPECT_GT(H.quantile(0.99), 0.5);
  EXPECT_LT(H.quantile(0.99), 2.0);
  // Quantiles are monotone in Q.
  EXPECT_LE(H.quantile(0.5), H.quantile(0.9));
  EXPECT_LE(H.quantile(0.9), H.quantile(0.99));
}

TEST(Histogram, ClampsOutOfRangeSamples) {
  Histogram H;
  H.record(-1.0);       // clamps to zero-ish, must not crash
  H.record(1e9);        // beyond the last octave, clamps to last bucket
  EXPECT_EQ(H.count(), 2u);
  EXPECT_GT(H.quantile(1.0), 1000.0);
}

TEST(Histogram, ResetZeroesEverything) {
  Histogram H;
  for (int I = 0; I != 10; ++I)
    H.record(0.01);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_DOUBLE_EQ(H.quantile(0.9), 0.0);
}

TEST(Histogram, ConcurrentRecordsAllLand) {
  Histogram H;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != 4; ++T)
    Ts.emplace_back([&H] {
      for (int I = 0; I != PerThread; ++I)
        H.record(0.0001 * (1 + (I % 7)));
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(H.count(), 4u * PerThread);
}

//===- Json.cpp -----------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace ac::support;

//===----------------------------------------------------------------------===//
// Object members
//===----------------------------------------------------------------------===//

void Json::set(const std::string &Key, Json V) {
  K = Kind::Object;
  for (auto &[Name, Val] : Members)
    if (Name == Key) {
      Val = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const Json &Json::get(const std::string &Key) const {
  static const Json Null;
  for (const auto &[Name, Val] : Members)
    if (Name == Key)
      return Val;
  return Null;
}

bool Json::has(const std::string &Key) const {
  for (const auto &[Name, Val] : Members)
    if (Name == Key)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

/// Escapes \p S into \p Out. Bytes that need no escape are copied a run
/// at a time.
void dumpString(const std::string &S, std::string &Out) {
  static const char Hex[] = "0123456789abcdef";
  Out += '"';
  const char *Run = S.data();
  const char *End = S.data() + S.size();
  for (const char *P = Run; P != End; ++P) {
    unsigned char C = static_cast<unsigned char>(*P);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue; // printable ASCII and UTF-8 bytes go out with their run
    Out.append(Run, P - Run);
    Run = P + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default: {
      const char U[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 15]};
      Out.append(U, sizeof(U));
    }
    }
  }
  Out.append(Run, End - Run);
  Out += '"';
}

void dumpNumber(double N, std::string &Out) {
  // Integral values in the exactly-representable range print as
  // integers — counters and sizes round-trip byte-stably.
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 1e15) {
    char Buf[32];
    char *End =
        std::to_chars(Buf, Buf + sizeof(Buf), static_cast<long long>(N)).ptr;
    Out.append(Buf, End - Buf);
    return;
  }
  if (!std::isfinite(N)) { // JSON has no Inf/NaN
    Out += "null";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  Out += Buf;
}

/// Appends the compact serialization of \p V to \p Out.
void dumpValue(const Json &V, std::string &Out) {
  switch (V.kind()) {
  case Json::Kind::Null:
    Out += "null";
    return;
  case Json::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case Json::Kind::Number:
    dumpNumber(V.asNumber(), Out);
    return;
  case Json::Kind::String:
    dumpString(V.asString(), Out);
    return;
  case Json::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &Item : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(Item, Out);
    }
    Out += ']';
    return;
  }
  case Json::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Name, Val] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(Name, Out);
      Out += ':';
      dumpValue(Val, Out);
    }
    Out += '}';
    return;
  }
  }
}

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const char *P;
  const char *End;
  std::string &Err;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool consume(char C) {
    skipWs();
    if (P == End || *P != C)
      return fail(std::string("expected '") + C + "'");
    ++P;
    return true;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (static_cast<size_t>(End - P) < Len || std::strncmp(P, Lit, Len) != 0)
      return fail(std::string("expected '") + Lit + "'");
    P += Len;
    return true;
  }

  bool parseHex4(unsigned &V) {
    V = 0;
    for (int I = 0; I != 4; ++I) {
      if (P == End)
        return fail("truncated \\u escape");
      char C = *P++;
      V <<= 4;
      if (C >= '0' && C <= '9')
        V |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        V |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    return true;
  }

  void appendUtf8(unsigned CP, std::string &Out) {
    if (CP < 0x80) {
      Out += static_cast<char>(CP);
    } else if (CP < 0x800) {
      Out += static_cast<char>(0xC0 | (CP >> 6));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (CP >> 12));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    for (;;) {
      // Copy the run of bytes up to the next quote, backslash or control
      // character in one append.
      const char *Run = P;
      while (P != End && *P != '"' && *P != '\\' &&
             static_cast<unsigned char>(*P) >= 0x20)
        ++P;
      Out.append(Run, P - Run);
      if (P == End)
        return fail("unterminated string");
      char C = *P++;
      if (C == '"')
        return true;
      if (C != '\\')
        return fail("raw control character in string");
      if (P == End)
        return fail("truncated escape");
      char E = *P++;
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        unsigned V;
        if (!parseHex4(V))
          return false;
        appendUtf8(V, Out); // BMP only; surrogate pairs land as-is
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseValue(Json &Out) {
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Json();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Json(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Json(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    case '[': {
      ++P;
      Out = Json::array();
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      for (;;) {
        Json V;
        if (!parseValue(V))
          return false;
        Out.push(std::move(V));
        skipWs();
        if (P == End)
          return fail("unterminated array");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == ']') {
          ++P;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++P;
      Out = Json::object();
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        if (!consume(':'))
          return false;
        Json V;
        if (!parseValue(V))
          return false;
        Out.set(Key, std::move(V));
        skipWs();
        if (P == End)
          return fail("unterminated object");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == '}') {
          ++P;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default: {
      // Number.
      const char *Start = P;
      if (*P == '-')
        ++P;
      while (P != End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                          *P == '.' || *P == 'e' || *P == 'E' ||
                          *P == '+' || *P == '-'))
        ++P;
      if (P == Start)
        return fail("unexpected character");
      std::string Num(Start, P);
      // JSON forbids leading zeros ("01") and a bare '-'; strtod is
      // laxer, so check the grammar's prefix ourselves.
      size_t D = Num[0] == '-' ? 1 : 0;
      if (Num.size() == D ||
          (Num[D] == '0' && Num.size() > D + 1 &&
           std::isdigit(static_cast<unsigned char>(Num[D + 1]))))
        return fail("malformed number");
      char *NumEnd = nullptr;
      double V = std::strtod(Num.c_str(), &NumEnd);
      if (NumEnd != Num.c_str() + Num.size())
        return fail("malformed number");
      Out = Json(V);
      return true;
    }
    }
  }
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string &Err) {
  Err.clear();
  Parser Ps{Text.data(), Text.data() + Text.size(), Err};
  if (!Ps.parseValue(Out)) {
    Out = Json(); // a rejected payload must not leak partial state
    return false;
  }
  Ps.skipWs();
  if (Ps.P != Ps.End) {
    Err = "trailing characters after JSON value";
    Out = Json();
    return false;
  }
  return true;
}

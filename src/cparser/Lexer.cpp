//===- Lexer.cpp ----------------------------------------------------------===//
//
// One pass over the source bytes. A token's column is its offset from the
// start of its line, so only newlines update the position; keywords are
// found by length, punctuators by their first character, and the code-line
// count needs only the last line that held a token, since lines only grow.
//
//===----------------------------------------------------------------------===//

#include "cparser/Lexer.h"

#include <cstring>

using namespace ac;
using namespace ac::cparser;

namespace {

bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isHexDigit(char C) {
  return isDigit(C) || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
}
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

bool isKeyword(const char *P, size_t Len) {
  auto Is = [&](const char *K) { return std::memcmp(P, K, Len) == 0; };
  switch (Len) {
  case 2:
    return Is("if") || Is("do");
  case 3:
    return Is("int") || Is("for");
  case 4:
    return Is("void") || Is("char") || Is("long") || Is("else") ||
           Is("NULL") || Is("case") || Is("goto");
  case 5:
    return Is("short") || Is("while") || Is("break") || Is("union") ||
           Is("float") || Is("const");
  case 6:
    return Is("signed") || Is("struct") || Is("return") || Is("sizeof") ||
           Is("switch") || Is("double") || Is("static") || Is("extern");
  case 7:
    return Is("default") || Is("typedef");
  case 8:
    return Is("unsigned") || Is("continue");
  default:
    return false;
  }
}

/// Length of the longest punctuator spelled by \p C, \p Next, \p Next2
/// ('\0' past the end of the input); 0 if no punctuator starts with \p C.
size_t punctLength(char C, char Next, char Next2) {
  switch (C) {
  case '<':
  case '>':
    if (Next == C)
      return Next2 == '=' ? 3 : 2; // <<= >>= << >>
    return Next == '=' ? 2 : 1;    // <= >= < >
  case '-':
    return Next == '>' || Next == '-' || Next == '=' ? 2 : 1; // -> -- -=
  case '+':
  case '&':
  case '|':
    return Next == C || Next == '=' ? 2 : 1; // ++ += && &= || |=
  case '=':
  case '!':
  case '*':
  case '/':
  case '%':
  case '^':
    return Next == '=' ? 2 : 1; // == != *= /= %= ^=
  case '{':
  case '}':
  case '(':
  case ')':
  case '[':
  case ']':
  case ';':
  case ',':
  case '.':
  case '~':
  case '?':
  case ':':
    return 1;
  default:
    return 0;
  }
}

} // namespace

std::vector<Token> ac::cparser::tokenize(const std::string &Source,
                                         DiagEngine &Diags,
                                         unsigned *CodeLines) {
  std::vector<Token> Toks;
  // About one token per three bytes of C; a closer estimate saves the
  // vector's regrowth copies.
  Toks.reserve(Source.size() / 3 + 1);
  const char *S = Source.data();
  size_t I = 0, N = Source.size();
  size_t LineStart = 0; // offset of the current line's first byte
  unsigned Line = 1;
  unsigned LastCodeLine = 0, NumCodeLines = 0;

  auto At = [&](size_t K) { return K < N ? S[K] : '\0'; };
  auto Loc = [&] {
    return SourceLoc{Line, static_cast<unsigned>(I - LineStart + 1)};
  };
  auto NewLineAt = [&](size_t K) {
    ++Line;
    LineStart = K + 1;
  };
  // Skips to the end of the line, leaving the newline to be counted.
  auto SkipLine = [&] {
    const void *Eol = std::memchr(S + I, '\n', N - I);
    I = Eol ? static_cast<const char *>(Eol) - S : N;
  };

  while (I < N) {
    char C = S[I];
    if (isSpace(C)) {
      if (C == '\n')
        NewLineAt(I);
      ++I;
      continue;
    }
    // Comments.
    if (C == '/' && At(I + 1) == '/') {
      SkipLine();
      continue;
    }
    if (C == '/' && At(I + 1) == '*') {
      SourceLoc Start = Loc();
      size_t J = I + 2;
      while (J + 1 < N && !(S[J] == '*' && S[J + 1] == '/')) {
        if (S[J] == '\n')
          NewLineAt(J);
        ++J;
      }
      if (J + 1 >= N) {
        // The stream's End sits where the search for "*/" stopped.
        I = J;
        Diags.error(Start, "unterminated block comment");
        break;
      }
      I = J + 2;
      continue;
    }
    // Preprocessor lines are not part of the subset; skip #include-style
    // lines so test inputs may carry them harmlessly.
    if (C == '#' && I == LineStart) {
      SkipLine();
      continue;
    }

    if (Line != LastCodeLine) {
      LastCodeLine = Line;
      ++NumCodeLines;
    }

    if (isIdentStart(C)) {
      size_t J = I + 1;
      while (J < N && isIdentChar(S[J]))
        ++J;
      Token &T = Toks.emplace_back();
      T.Kind = isKeyword(S + I, J - I) ? TokKind::Keyword : TokKind::Ident;
      T.Text.assign(S + I, J - I);
      T.Loc = Loc();
      I = J;
      continue;
    }

    if (isDigit(C)) {
      size_t J = I;
      // Unsigned, so that a literal too long for 64 bits wraps instead of
      // overflowing a signed value.
      unsigned long long V = 0;
      if (C == '0' && (At(J + 1) == 'x' || At(J + 1) == 'X')) {
        J += 2;
        for (; J < N && isHexDigit(S[J]); ++J) {
          char D = S[J];
          V = V * 16 + (isDigit(D) ? D - '0' : (D | 0x20) - 'a' + 10);
        }
      } else {
        for (; J < N && isDigit(S[J]); ++J)
          V = V * 10 + (S[J] - '0');
      }
      Token &T = Toks.emplace_back();
      T.Kind = TokKind::IntLit;
      T.IntValue = static_cast<long long>(V);
      // Suffixes.
      while (J < N && (S[J] == 'u' || S[J] == 'U' || S[J] == 'l' ||
                       S[J] == 'L')) {
        if (S[J] == 'u' || S[J] == 'U')
          T.IsUnsignedLit = true;
        ++J;
      }
      T.Text.assign(S + I, J - I);
      T.Loc = Loc();
      I = J;
      continue;
    }

    if (size_t L = punctLength(C, At(I + 1), At(I + 2))) {
      Token &T = Toks.emplace_back();
      T.Kind = TokKind::Punct;
      T.Text.assign(S + I, L);
      T.Loc = Loc();
      I += L;
      continue;
    }

    Diags.error(Loc(), std::string("unexpected character '") + C + "'");
    ++I;
  }

  Token &End = Toks.emplace_back();
  End.Kind = TokKind::End;
  End.Loc = Loc();
  if (CodeLines)
    *CodeLines = NumCodeLines;
  return Toks;
}

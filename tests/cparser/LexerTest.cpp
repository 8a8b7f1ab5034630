//===- LexerTest.cpp - The C tokenizer's exact output ----------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins everything tokenize() hands the parser: token kinds, spellings,
/// literal values and suffix flags, source locations, the Table 5 code-
/// line count and the diagnostics. The hand-written cases cover each rule
/// of the lexer; the digests at the end pin the whole token stream of the
/// four Table 5 presets and the five golden programs, so a rewrite of the
/// lexer must reproduce the old one byte for byte.
///
//===----------------------------------------------------------------------===//

#include "cparser/Lexer.h"
#include "corpus/Sources.h"
#include "corpus/Synthetic.h"
#include "support/Fingerprint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ac;
using namespace ac::cparser;

namespace {

struct Lexed {
  std::vector<Token> Toks;
  unsigned CodeLines = 0;
  DiagEngine Diags;
};

Lexed lex(const std::string &Src) {
  Lexed L;
  L.Toks = tokenize(Src, L.Diags, &L.CodeLines);
  return L;
}

/// The spellings of every token before End.
std::vector<std::string> texts(const Lexed &L) {
  std::vector<std::string> Out;
  for (const Token &T : L.Toks)
    if (!T.is(TokKind::End))
      Out.push_back(T.Text);
  return Out;
}

const char *const Keywords[] = {
    "void",   "int",      "unsigned", "signed", "char",     "short",
    "long",   "struct",   "if",       "else",   "while",    "do",
    "for",    "return",   "break",    "continue", "sizeof", "NULL",
    "switch", "case",     "default",  "goto",   "union",    "float",
    "double", "typedef",  "static",   "const",  "extern",
};

const char *const Punctuators[] = {
    "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{",   "}",   "(",  ")",  "[",  "]",  ";",  ",",  ".",  "+",  "-",
    "*",   "/",   "%",  "<",  ">",  "=",  "!",  "&",  "|",  "^",  "~",
    "?",   ":",
};

/// One canonical line per token plus the code-line count and every
/// diagnostic: the stream the digests below are computed over.
std::string dumpStream(const Lexed &L) {
  std::string Out;
  for (const Token &T : L.Toks) {
    Out += std::to_string(static_cast<int>(T.Kind)) + ' ' + T.Text + ' ' +
           std::to_string(T.IntValue) + ' ' + (T.IsUnsignedLit ? 'u' : '-') +
           ' ' + T.Loc.str() + '\n';
  }
  Out += "code_lines " + std::to_string(L.CodeLines) + '\n';
  Out += L.Diags.str();
  return Out;
}

uint64_t streamDigest(const std::string &Src) {
  support::Fingerprint FP;
  FP.str(dumpStream(lex(Src)));
  return FP.digest();
}

} // namespace

TEST(Lexer, EveryKeyword) {
  for (const char *K : Keywords) {
    Lexed L = lex(K);
    ASSERT_EQ(L.Toks.size(), 2u) << K;
    EXPECT_TRUE(L.Toks[0].is(TokKind::Keyword)) << K;
    EXPECT_TRUE(L.Toks[0].isKeyword(K));
    EXPECT_EQ(L.Toks[0].Text, K);
    EXPECT_TRUE(L.Toks[1].is(TokKind::End));
  }
  // Near misses are identifiers: a keyword's prefix, extension, other
  // case, or a keyword glued to an underscore or a digit.
  for (const char *I : {"in", "intx", "Int", "INT", "null", "NUL", "NULLx",
                        "_if", "if_", "do2", "i", "unsigne", "unsignedd",
                        "externs", "typedef_", "enum", "inline"}) {
    Lexed L = lex(I);
    ASSERT_EQ(L.Toks.size(), 2u) << I;
    EXPECT_TRUE(L.Toks[0].is(TokKind::Ident)) << I;
    EXPECT_EQ(L.Toks[0].Text, I);
  }
  Lexed L = lex("_x9 __ a_b_C0");
  EXPECT_EQ(texts(L), (std::vector<std::string>{"_x9", "__", "a_b_C0"}));
}

TEST(Lexer, EveryPunctuator) {
  for (const char *P : Punctuators) {
    Lexed L = lex(P);
    ASSERT_EQ(L.Toks.size(), 2u) << P;
    EXPECT_TRUE(L.Toks[0].isPunct(P)) << P;
    EXPECT_EQ(L.Toks[0].Loc.Col, 1u);
    EXPECT_TRUE(L.Diags.diagnostics().empty()) << P;
  }
  // All of them in one line, separated by single spaces.
  std::string All;
  std::vector<std::string> Want;
  for (const char *P : Punctuators) {
    All += std::string(P) + ' ';
    Want.push_back(P);
  }
  EXPECT_EQ(texts(lex(All)), Want);
}

TEST(Lexer, LongestMatch) {
  auto T = [](const char *S) { return texts(lex(S)); };
  using V = std::vector<std::string>;
  EXPECT_EQ(T("a<<=b"), (V{"a", "<<=", "b"}));
  EXPECT_EQ(T("a>>=b"), (V{"a", ">>=", "b"}));
  EXPECT_EQ(T("p->f"), (V{"p", "->", "f"}));
  EXPECT_EQ(T("a+++b"), (V{"a", "++", "+", "b"}));
  EXPECT_EQ(T("a---b"), (V{"a", "--", "-", "b"}));
  EXPECT_EQ(T("a<<<b"), (V{"a", "<<", "<", "b"}));
  EXPECT_EQ(T("a>>>=b"), (V{"a", ">>", ">=", "b"}));
  EXPECT_EQ(T("a&&&b"), (V{"a", "&&", "&", "b"}));
  EXPECT_EQ(T("a|||b"), (V{"a", "||", "|", "b"}));
  EXPECT_EQ(T("a===b"), (V{"a", "==", "=", "b"}));
  EXPECT_EQ(T("!!=a"), (V{"!", "!=", "a"}));
  EXPECT_EQ(T("->-->"), (V{"->", "--", ">"}));
  EXPECT_EQ(T("x/=y/z"), (V{"x", "/=", "y", "/", "z"}));
  EXPECT_EQ(T("a.b"), (V{"a", ".", "b"}));
}

TEST(Lexer, IntegerLiterals) {
  struct Case {
    const char *Src;
    long long Value;
    bool Unsigned;
  };
  const Case Cases[] = {
      {"0", 0, false},          {"42", 42, false},
      {"007", 7, false},        {"4294967295", 4294967295LL, false},
      {"0x1F", 31, false},      {"0XfF", 255, false},
      {"0xABCDEF", 0xABCDEF, false}, {"0x", 0, false},
      {"7u", 7, true},          {"7U", 7, true},
      {"7l", 7, false},         {"7L", 7, false},
      {"7ul", 7, true},         {"7UL", 7, true},
      {"7lu", 7, true},         {"7LLU", 7, true},
      {"7ll", 7, false},        {"0x10u", 16, true},
      {"0x10L", 16, false},     {"0xffffffffUL", 0xffffffffLL, true},
      // Past 64 bits the value wraps.
      {"99999999999999999999", 7766279631452241919LL, false},
      {"0xFFFFFFFFFFFFFFFF", -1, false},
      {"0x1ffffffffffffffffu", -1, true},
  };
  for (const Case &C : Cases) {
    Lexed L = lex(C.Src);
    ASSERT_EQ(L.Toks.size(), 2u) << C.Src;
    const Token &T = L.Toks[0];
    EXPECT_TRUE(T.is(TokKind::IntLit)) << C.Src;
    EXPECT_EQ(T.IntValue, C.Value) << C.Src;
    EXPECT_EQ(T.IsUnsignedLit, C.Unsigned) << C.Src;
    EXPECT_EQ(T.Text, C.Src) << "the spelling keeps the suffix";
  }
  // A literal ends where its digits and suffix letters end.
  using V = std::vector<std::string>;
  EXPECT_EQ(texts(lex("12abc")), (V{"12", "abc"}));
  EXPECT_EQ(texts(lex("12uLx")), (V{"12uL", "x"}));
  EXPECT_EQ(texts(lex("0xfg")), (V{"0xf", "g"}));
  EXPECT_EQ(texts(lex("1.5")), (V{"1", ".", "5"}));
}

TEST(Lexer, Comments) {
  Lexed L = lex("a // line comment * / \"x\n"
                "b /* block\n"
                "   spanning */ c /**/ d /* * / ** */ e\n"
                "//\n"
                "f");
  EXPECT_EQ(texts(L),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));
  EXPECT_TRUE(L.Diags.diagnostics().empty());
  EXPECT_EQ(L.Toks[1].Loc.str(), "2:1");
  EXPECT_EQ(L.Toks[2].Loc.str(), "3:16");
  EXPECT_EQ(L.Toks[3].Loc.str(), "3:23");
  EXPECT_EQ(L.Toks[4].Loc.str(), "3:38");
  EXPECT_EQ(L.Toks[5].Loc.str(), "5:1");
  // Only lines where a token starts hold code: 1, 2, 3 and 5.
  EXPECT_EQ(L.CodeLines, 4u);
  // A comment running to the end of input ends the stream cleanly.
  Lexed Tail = lex("x // no newline");
  EXPECT_EQ(texts(Tail), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Tail.Toks.back().Loc.str(), "1:16");
}

TEST(Lexer, HashLinesOnlyAtColumnOne) {
  Lexed L = lex("#include <stdio.h>\n"
                "int a; # not a directive\n"
                "#define X 1\n"
                " #indented\n"
                "b");
  std::vector<std::string> Want = {"int", "a", ";", "not", "a", "directive",
                                   "indented", "b"};
  EXPECT_EQ(texts(L), Want);
  ASSERT_EQ(L.Diags.diagnostics().size(), 2u);
  EXPECT_EQ(L.Diags.diagnostics()[0].Message, "unexpected character '#'");
  EXPECT_EQ(L.Diags.diagnostics()[0].Loc.str(), "2:8");
  EXPECT_EQ(L.Diags.diagnostics()[1].Loc.str(), "4:2");
  // Skipped lines hold no code; the stray '#' lines do.
  EXPECT_EQ(L.CodeLines, 3u);
}

TEST(Lexer, UnterminatedBlockComment) {
  Lexed L = lex("int x;\n/* never\nclosed");
  EXPECT_EQ(texts(L), (std::vector<std::string>{"int", "x", ";"}));
  ASSERT_EQ(L.Diags.diagnostics().size(), 1u);
  const Diagnostic &D = L.Diags.diagnostics()[0];
  EXPECT_EQ(D.Kind, DiagKind::Error);
  EXPECT_EQ(D.Message, "unterminated block comment");
  EXPECT_EQ(D.Loc.str(), "2:1");
  // Lexing stops there; End sits on the last character of the input.
  EXPECT_EQ(L.Toks.back().Loc.str(), "3:6");
  EXPECT_EQ(L.CodeLines, 1u);

  Lexed Bare = lex("a /*");
  ASSERT_EQ(Bare.Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Bare.Diags.diagnostics()[0].Loc.str(), "1:3");
  EXPECT_EQ(Bare.Toks.back().Loc.str(), "1:5");
  Lexed Star = lex("a /*/");
  ASSERT_EQ(Star.Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Star.Toks.back().Loc.str(), "1:5");
  Lexed Almost = lex("/* *");
  ASSERT_EQ(Almost.Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Almost.Toks.back().Loc.str(), "1:4");
}

TEST(Lexer, UnexpectedCharacterThenContinues) {
  Lexed L = lex("a @ b $\n`c\\ \"d\" 'e'");
  EXPECT_EQ(texts(L), (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  std::vector<std::string> Got;
  for (const Diagnostic &D : L.Diags.diagnostics()) {
    EXPECT_EQ(D.Kind, DiagKind::Error);
    Got.push_back(D.Loc.str() + " " + D.Message);
  }
  std::vector<std::string> Want = {
      "1:3 unexpected character '@'", "1:7 unexpected character '$'",
      "2:1 unexpected character '`'", "2:3 unexpected character '\\'",
      "2:5 unexpected character '\"'", "2:7 unexpected character '\"'",
      "2:9 unexpected character '''", "2:11 unexpected character '''"};
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(L.CodeLines, 2u);
  // Bytes outside ASCII are not identifier characters either.
  Lexed U = lex("x\xC3\xA9y");
  EXPECT_EQ(texts(U), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(U.Diags.diagnostics().size(), 2u);
  EXPECT_EQ(U.Toks[1].Loc.str(), "1:4");
}

TEST(Lexer, LinesAndColumns) {
  // A tab and a CR are one column each; LF starts a new line.
  Lexed L = lex("\tint\tx;\r\n"
                "  y = 1;\r\n"
                "\n"
                "\v\fz");
  ASSERT_EQ(L.Toks.size(), 9u);
  std::vector<std::string> Locs;
  for (const Token &T : L.Toks)
    Locs.push_back(T.Loc.str());
  EXPECT_EQ(Locs, (std::vector<std::string>{"1:2", "1:6", "1:7", "2:3",
                                            "2:5", "2:7", "2:8", "4:3",
                                            "4:4"}));
  EXPECT_EQ(L.CodeLines, 3u);
  // End sits one past the last character.
  Lexed E = lex("a\n");
  EXPECT_EQ(E.Toks.back().Loc.str(), "2:1");
  Lexed Empty = lex("");
  ASSERT_EQ(Empty.Toks.size(), 1u);
  EXPECT_EQ(Empty.Toks[0].Loc.str(), "1:1");
  EXPECT_EQ(Empty.CodeLines, 0u);
  // The code-line count is optional.
  DiagEngine D;
  EXPECT_EQ(tokenize("a b", D).size(), 3u);
}

/// Digests of the whole token stream (every field, the code-line count
/// and the diagnostics) of the Table 5 presets and the golden programs,
/// computed with the lexer as it was before the single-pass rewrite.
TEST(Lexer, PinnedTokenStreams) {
  struct Pinned {
    const char *Name;
    std::string Source;
    uint64_t Digest;
  };
  const Pinned Cases[] = {
      {"sel4", corpus::generateSyntheticProgram(corpus::sel4Scale()),
       0x04bb554e18e2b9f1ull},
      {"capdl", corpus::generateSyntheticProgram(corpus::capdlScale()),
       0xe8657fdfc2d32c48ull},
      {"piccolo", corpus::generateSyntheticProgram(corpus::piccoloScale()),
       0x3b669e36b09e1c8full},
      {"echronos",
       corpus::generateSyntheticProgram(corpus::echronosScale()),
       0xb2889525908536b7ull},
      {"max", corpus::maxSource(), 0xc2b8c51a70cd73f4ull},
      {"gcd", corpus::gcdSource(), 0xd91be6289790c756ull},
      {"swap", corpus::swapSource(), 0x09863b9c3c8b88eaull},
      {"midpoint", corpus::midpointSource(), 0x057f7d4314c58af2ull},
      {"reverse", corpus::reverseSource(), 0x549179e5408fc540ull},
  };
  for (const Pinned &P : Cases)
    EXPECT_EQ(support::Fingerprint::hex(streamDigest(P.Source)),
              support::Fingerprint::hex(P.Digest))
        << P.Name;
}

//===- TranslateTest.cpp - C-to-Simpl translation with guards -------------===//

#include "simpl/PrintSimpl.h"
#include "simpl/Program.h"

#include <gtest/gtest.h>

using namespace ac;
using namespace ac::simpl;

namespace {

std::unique_ptr<SimplProgram> translate(const std::string &Src) {
  DiagEngine Diags;
  auto P = parseAndTranslate(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.str();
  return P;
}

unsigned countGuards(const SimplFunc &F, GuardKind K) {
  unsigned N = 0;
  std::vector<const SimplStmt *> Stack{F.Body.get()};
  while (!Stack.empty()) {
    const SimplStmt *S = Stack.back();
    Stack.pop_back();
    if (!S)
      continue;
    if (S->kind() == SimplStmt::Kind::Guard && S->GK == K)
      ++N;
    Stack.push_back(S->A.get());
    Stack.push_back(S->B.get());
  }
  return N;
}

} // namespace

TEST(Translate, MaxHasFig2Shape) {
  auto P = translate("int max(int a, int b) {\n"
                     "  if (a < b)\n"
                     "    return b;\n"
                     "  return a;\n"
                     "}\n");
  const SimplFunc *F = P->function("max");
  ASSERT_NE(F, nullptr);
  // Outer TRY...CATCH for Return, a DontReach guard at the end.
  EXPECT_EQ(F->Body->kind(), SimplStmt::Kind::TryCatch);
  EXPECT_EQ(F->Body->Frame, FrameKind::FunctionBody);
  EXPECT_EQ(countGuards(*F, GuardKind::DontReach), 1u);
  // The comparison a < b requires no overflow guard.
  EXPECT_EQ(countGuards(*F, GuardKind::SignedOverflow), 0u);
  std::string Printed = printSimplFunc(*F);
  EXPECT_NE(Printed.find("TRY"), std::string::npos);
  EXPECT_NE(Printed.find("THROW"), std::string::npos);
  EXPECT_NE(Printed.find("´ret :== "), std::string::npos);
  EXPECT_NE(Printed.find("global_exn_var :== Return"), std::string::npos);
}

TEST(Translate, SignedOverflowGuards) {
  // Signed a + b gets a lower and an upper bound guard.
  auto P = translate("int add(int a, int b) { return a + b; }\n");
  const SimplFunc *F = P->function("add");
  EXPECT_EQ(countGuards(*F, GuardKind::SignedOverflow), 2u);
  // Unsigned addition wraps; no guard.
  auto P2 = translate("unsigned add(unsigned a, unsigned b) "
                      "{ return a + b; }\n");
  EXPECT_EQ(countGuards(*P2->function("add"), GuardKind::SignedOverflow),
            0u);
}

TEST(Translate, DivisionGuards) {
  auto P = translate("int div(int a, int b) { return a / b; }\n");
  const SimplFunc *F = P->function("div");
  EXPECT_EQ(countGuards(*F, GuardKind::DivByZero), 1u);
  // INT_MIN / -1.
  EXPECT_EQ(countGuards(*F, GuardKind::SignedOverflow), 1u);
  auto P2 =
      translate("unsigned d(unsigned a, unsigned b) { return a / b; }\n");
  EXPECT_EQ(countGuards(*P2->function("d"), GuardKind::DivByZero), 1u);
  EXPECT_EQ(countGuards(*P2->function("d"), GuardKind::SignedOverflow), 0u);
}

TEST(Translate, PointerGuards) {
  auto P = translate("unsigned deref(unsigned *p) { return *p; }\n");
  EXPECT_EQ(countGuards(*P->function("deref"), GuardKind::PtrValid), 1u);
  // swap: two reads + two writes, each access guarded (Fig 3 shows the
  // guards merged per statement; we emit one per heap access).
  auto P2 = translate("void swap(unsigned *a, unsigned *b) {\n"
                      "  unsigned t = *a;\n"
                      "  *a = *b;\n"
                      "  *b = t;\n"
                      "}\n");
  EXPECT_GE(countGuards(*P2->function("swap"), GuardKind::PtrValid), 4u);
}

TEST(Translate, ShortCircuitGuardsAreWeakened) {
  // In `p != NULL && p->data == 0`, the p->data guard only applies when
  // the left side is true; the translation must not emit an unconditional
  // pointer guard.
  auto P = translate("struct node { unsigned data; };\n"
                     "int check(struct node *p) {\n"
                     "  if (p != NULL && p->data == 0) return 1;\n"
                     "  return 0;\n"
                     "}\n");
  const SimplFunc *F = P->function("check");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(countGuards(*F, GuardKind::PtrValid), 1u);
  // The guard must mention the short-circuit disjunction.
  std::string Printed = printSimplFunc(*F);
  EXPECT_NE(Printed.find("∨"), std::string::npos) << Printed;
}

TEST(Translate, HeapTypesAreCollected) {
  auto P = translate("struct node { struct node *next; unsigned data; };\n"
                     "unsigned f(struct node *p, unsigned *q) {\n"
                     "  return p->data + *q;\n"
                     "}\n");
  // node_C and word32 heaps.
  EXPECT_EQ(P->HeapTypes.size(), 2u);
}

TEST(Translate, LoopsUseExnEncoding) {
  auto P = translate("int f(int n) {\n"
                     "  int i = 0;\n"
                     "  while (i < n) {\n"
                     "    if (i == 7) break;\n"
                     "    i = i + 1;\n"
                     "  }\n"
                     "  return i;\n"
                     "}\n");
  const SimplFunc *F = P->function("f");
  // Loop frame + function frame.
  unsigned Frames = 0;
  std::vector<const SimplStmt *> Stack{F->Body.get()};
  while (!Stack.empty()) {
    const SimplStmt *S = Stack.back();
    Stack.pop_back();
    if (!S)
      continue;
    if (S->kind() == SimplStmt::Kind::TryCatch)
      ++Frames;
    Stack.push_back(S->A.get());
    Stack.push_back(S->B.get());
  }
  EXPECT_GE(Frames, 3u); // function + loop-break + loop-continue
}

TEST(Translate, StateRecordsContainLocalsAndGlobals) {
  auto P = translate("unsigned g_counter = 5;\n"
                     "unsigned next(void) {\n"
                     "  unsigned v = g_counter;\n"
                     "  g_counter = v + 1;\n"
                     "  return v;\n"
                     "}\n");
  const hol::RecordInfo *G = P->Records.lookup(globalsRecName());
  ASSERT_NE(G, nullptr);
  EXPECT_NE(G->fieldType("g_counter"), nullptr);
  EXPECT_NE(G->fieldType(heapFieldName()), nullptr);
  const hol::RecordInfo *S = P->Records.lookup("next_state");
  ASSERT_NE(S, nullptr);
  EXPECT_NE(S->fieldType("v"), nullptr);
  EXPECT_NE(S->fieldType("ret"), nullptr);
  EXPECT_NE(S->fieldType(exnVarName()), nullptr);
}

TEST(Translate, RecursionIsMarked) {
  auto P = translate("unsigned fact(unsigned n) {\n"
                     "  if (n == 0) return 1;\n"
                     "  return n * fact(n - 1);\n"
                     "}\n"
                     "unsigned top(unsigned n) { return fact(n); }\n");
  EXPECT_TRUE(P->function("fact")->IsRecursive);
  EXPECT_FALSE(P->function("top")->IsRecursive);
}

TEST(Translate, MetricsAreComputable) {
  auto P = translate("int max(int a, int b) {\n"
                     "  if (a < b) return b;\n"
                     "  return a;\n"
                     "}\n");
  const SimplFunc *F = P->function("max");
  EXPECT_GT(F->Body->termSize(), 20u);
  EXPECT_GT(simplSpecLines(*F), 10u);
}

TEST(Translate, DeclarationPassReportsBodyErrors) {
  // The body pass cannot fail: the declaration pass rejects a call to a
  // function without a body here, and a second definition of a name.
  DiagEngine Diags;
  EXPECT_FALSE(parseAndDeclare("unsigned ext(unsigned x);\n"
                               "unsigned f(unsigned x) {\n"
                               "  unsigned r;\n"
                               "  r = ext(x);\n"
                               "  return r;\n"
                               "}\n",
                               Diags));
  EXPECT_NE(Diags.str().find("call to function 'ext' which has no body"),
            std::string::npos)
      << Diags.str();

  DiagEngine Diags2;
  EXPECT_FALSE(parseAndDeclare("unsigned f(unsigned x) { return x; }\n"
                               "unsigned f(unsigned x) { return x + 1; }\n",
                               Diags2));
  EXPECT_NE(Diags2.str().find("redefinition of function 'f'"),
            std::string::npos)
      << Diags2.str();
}

TEST(Translate, BodiesTranslateInAnyOrder) {
  // A body reads only the declaration pass's state, so translating one
  // body alone, or the bodies backwards, gives what translating them all
  // in order gives.
  const char *Src = "struct node { struct node *next; unsigned v; };\n"
                    "unsigned get(struct node *n) { return n->v; }\n"
                    "unsigned sum(struct node *n) {\n"
                    "  unsigned s; s = 0;\n"
                    "  while (n != NULL) { s = s + get(n); n = n->next; }\n"
                    "  return s;\n"
                    "}\n";
  auto All = translate(Src);
  DiagEngine Diags;
  auto Backwards = parseAndDeclare(Src, Diags);
  ASSERT_TRUE(Backwards) << Diags.str();
  for (size_t I = Backwards->FunctionOrder.size(); I-- > 0;)
    translateBody(*Backwards, I);
  for (const std::string &Name : All->FunctionOrder)
    EXPECT_EQ(printSimplFunc(*Backwards->function(Name)),
              printSimplFunc(*All->function(Name)))
        << Name;
}

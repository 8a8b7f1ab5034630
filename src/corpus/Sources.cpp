//===- Sources.cpp --------------------------------------------------------===//

#include "corpus/Sources.h"
#include "corpus/Synthetic.h"

#include <map>

using namespace ac::corpus;

bool ac::corpus::namedSource(const std::string &Name, std::string &Out) {
  static const std::map<std::string, const char *(*)()> Fixed = {
      {"max", maxSource},
      {"gcd", gcdSource},
      {"swap", swapSource},
      {"midpoint", midpointSource},
      {"binary_search", binarySearchSource},
      {"suzuki", suzukiSource},
      {"memset", memsetSource},
      {"reverse", reverseSource},
      {"schorr_waite", schorrWaiteSource}};
  static const std::map<std::string, SyntheticSpec (*)()> Scaled = {
      {"sel4", sel4Scale},
      {"capdl", capdlScale},
      {"piccolo", piccoloScale},
      {"echronos", echronosScale}};
  if (auto It = Fixed.find(Name); It != Fixed.end())
    Out = It->second();
  else if (auto It = Scaled.find(Name); It != Scaled.end())
    Out = generateSyntheticProgram(It->second());
  else
    return false;
  return true;
}

const char *ac::corpus::maxSource() {
  return "int max(int a, int b) {\n"
         "  if (a < b)\n"
         "    return b;\n"
         "  return a;\n"
         "}\n";
}

const char *ac::corpus::gcdSource() {
  return "unsigned gcd(unsigned a, unsigned b) {\n"
         "  while (b != 0) {\n"
         "    unsigned t = b;\n"
         "    b = a % b;\n"
         "    a = t;\n"
         "  }\n"
         "  return a;\n"
         "}\n";
}

const char *ac::corpus::swapSource() {
  return "void swap(unsigned *a, unsigned *b) {\n"
         "  unsigned t = *a;\n"
         "  *a = *b;\n"
         "  *b = t;\n"
         "}\n";
}

const char *ac::corpus::midpointSource() {
  return "unsigned mid(unsigned l, unsigned r) {\n"
         "  unsigned m = (l + r) / 2;\n"
         "  return m;\n"
         "}\n";
}

const char *ac::corpus::binarySearchSource() {
  return "unsigned bsearch(unsigned *arr, unsigned n, unsigned key) {\n"
         "  unsigned l = 0;\n"
         "  unsigned r = n;\n"
         "  while (l < r) {\n"
         "    unsigned m = (l + r) / 2;\n"
         "    unsigned v = arr[m];\n"
         "    if (v == key)\n"
         "      return m;\n"
         "    if (v < key)\n"
         "      l = m + 1;\n"
         "    else\n"
         "      r = m;\n"
         "  }\n"
         "  return n;\n"
         "}\n";
}

const char *ac::corpus::suzukiSource() {
  return "struct node { struct node *next; int data; };\n"
         "int suzuki(struct node *w, struct node *x, struct node *y,\n"
         "           struct node *z) {\n"
         "  w->next = x; x->next = y; y->next = z; x->next = z;\n"
         "  w->data = 1; x->data = 2; y->data = 3; z->data = 4;\n"
         "  return w->next->next->data;\n"
         "}\n";
}

const char *ac::corpus::memsetSource() {
  return "void my_memset(unsigned char *p, unsigned char c, unsigned n) {\n"
         "  unsigned i = 0;\n"
         "  while (i < n) {\n"
         "    p[i] = c;\n"
         "    i = i + 1;\n"
         "  }\n"
         "}\n";
}

const char *ac::corpus::reverseSource() {
  return "struct node { struct node *next; unsigned data; };\n"
         "struct node *reverse(struct node *list) {\n"
         "  struct node *rev = NULL;\n"
         "  while (list) {\n"
         "    struct node *next = list->next;\n"
         "    list->next = rev; rev = list; list = next;\n"
         "  }\n"
         "  return rev;\n"
         "}\n";
}

const char *ac::corpus::schorrWaiteSource() {
  // Fig 8, verbatim (m and c are int-typed bits).
  return "struct node { struct node *l; struct node *r; int m; int c; };\n"
         "void schorr_waite(struct node *root) {\n"
         "  struct node *t = root;\n"
         "  struct node *p = NULL;\n"
         "  struct node *q;\n"
         "  while (p != NULL || (t != NULL && !t->m)) {\n"
         "    if (t == NULL || t->m) {\n"
         "      if (p->c) {\n"
         "        q = t; t = p; p = p->r; t->r = q;\n"
         "      } else {\n"
         "        q = t; t = p->r; p->r = p->l;\n"
         "        p->l = q; p->c = 1;\n"
         "      }\n"
         "    } else {\n"
         "      q = p; p = t; t = t->l; p->l = q;\n"
         "      p->m = 1; p->c = 0;\n"
         "    }\n"
         "  }\n"
         "}\n";
}

//===- CallGraph.cpp ------------------------------------------------------===//

#include "simpl/CallGraph.h"

#include <algorithm>
#include <cassert>

using namespace ac;
using namespace ac::simpl;

bool CallGraph::isRecursive(unsigned I) const {
  if (SCCs[SCCOf[I]].size() > 1)
    return true;
  return std::find(Callees[I].begin(), Callees[I].end(), I) !=
         Callees[I].end();
}

CallGraph ac::simpl::buildCallGraph(std::vector<std::vector<unsigned>> Adj) {
  unsigned N = static_cast<unsigned>(Adj.size());

  // Iterative Tarjan. With edges pointing caller -> callee, an SCC is
  // emitted only after every SCC it reaches (its callees), so the output
  // is already in callee-first topological order. Roots are visited in
  // FunctionOrder and neighbours in first-call order, making the result
  // independent of anything but the program.
  constexpr unsigned None = ~0u;
  std::vector<unsigned> Index(N, None), Low(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<unsigned> Stack;
  CallGraph Out;
  Out.SCCOf.assign(N, None);
  unsigned NextIndex = 0;

  struct Frame {
    unsigned V;
    size_t NextEdge = 0;
  };
  std::vector<Frame> Frames;

  for (unsigned Root = 0; Root != N; ++Root) {
    if (Index[Root] != None)
      continue;
    Frames.push_back({Root});
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      unsigned V = F.V;
      if (F.NextEdge == 0) {
        Index[V] = Low[V] = NextIndex++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      bool Descended = false;
      while (F.NextEdge < Adj[V].size()) {
        unsigned W = Adj[V][F.NextEdge++];
        if (Index[W] == None) {
          Frames.push_back({W});
          Descended = true;
          break;
        }
        if (OnStack[W])
          Low[V] = std::min(Low[V], Index[W]);
      }
      if (Descended)
        continue;
      if (Low[V] == Index[V]) {
        // V is an SCC root: pop its members.
        std::vector<unsigned> Members;
        for (;;) {
          unsigned W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Out.SCCOf[W] = static_cast<unsigned>(Out.SCCs.size());
          Members.push_back(W);
          if (W == V)
            break;
        }
        // Members in FunctionOrder order = the serial processing order.
        std::sort(Members.begin(), Members.end());
        Out.SCCs.push_back(std::move(Members));
      }
      Frames.pop_back();
      if (!Frames.empty()) {
        Frame &P = Frames.back();
        Low[P.V] = std::min(Low[P.V], Low[V]);
      }
    }
  }

  // Condensation edges: each SCC depends on its callees' SCCs.
  Out.Deps.resize(Out.SCCs.size());
  for (unsigned V = 0; V != N; ++V) {
    for (unsigned W : Adj[V]) {
      unsigned CV = Out.SCCOf[V], CW = Out.SCCOf[W];
      assert(CW <= CV && "callee SCC must be emitted before its caller");
      if (CW != CV)
        Out.Deps[CV].push_back(CW);
    }
  }
  for (std::vector<unsigned> &D : Out.Deps) {
    std::sort(D.begin(), D.end());
    D.erase(std::unique(D.begin(), D.end()), D.end());
  }
  Out.Callees = std::move(Adj);
  return Out;
}

//===- CallGraph.h - The call graph of a translation unit -------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one call graph of a translated program. The Simpl declaration pass
/// builds it from the typed AST (simpl/Program.h), before any body is
/// translated, and everything that needs call structure reads it:
///
///   - `SimplFunc::IsRecursive` (a function in a cycle);
///   - the abstraction cache's keys, which fold callee keys in over the
///     SCCs (core/ResultCache.h);
///   - the Jobs>1 schedule (core/AutoCorres.cpp). Each function's
///     abstraction (L1 -> L2 -> HL -> WA) depends only on its callees'
///     summaries, so the unit of scheduling is a strongly connected
///     component: SCCs form a DAG, and an SCC can run the moment every
///     callee SCC has finished — no phase barriers.
///
/// Ordering is fully deterministic: functions inside an SCC appear in
/// `SimplProgram::FunctionOrder` order (the serial processing order), and
/// the SCC list itself is topological with callees first, matching the
/// visibility the serial pipeline gives each function. That is what makes
/// a parallel run produce bit-identical output to Jobs=1.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SIMPL_CALLGRAPH_H
#define AC_SIMPL_CALLGRAPH_H

#include <vector>

namespace ac::simpl {

/// Call graph over the defined functions; node i is FunctionOrder[i].
struct CallGraph {
  /// Callees[i]: the functions node i calls, deduplicated, in first-call
  /// order.
  std::vector<std::vector<unsigned>> Callees;
  /// SCCs in callee-first topological order; each lists its members in
  /// ascending (FunctionOrder) order. Most SCCs are singletons — mutual
  /// recursion is the only way to get more.
  std::vector<std::vector<unsigned>> SCCs;
  /// Deps[c]: the SCCs that must complete before SCC c starts (its
  /// callees' components), deduplicated, ascending.
  std::vector<std::vector<unsigned>> Deps;
  /// SCCOf[i]: index into SCCs of node i's component.
  std::vector<unsigned> SCCOf;

  /// True if node \p I can reach itself: it shares its SCC with another
  /// function or calls itself.
  bool isRecursive(unsigned I) const;
};

/// Condenses the adjacency lists \p Callees (node i calls Callees[i])
/// into SCCs, scheduling-ready.
CallGraph buildCallGraph(std::vector<std::vector<unsigned>> Callees);

} // namespace ac::simpl

#endif // AC_SIMPL_CALLGRAPH_H

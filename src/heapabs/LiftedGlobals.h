//===- LiftedGlobals.h - The split typed-heap state -------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-program abstract state of Sec 4.4: for every heap type 'a the
/// program accesses, the generated `lifted_globals` record carries
///
///   is_valid_'a :: 'a ptr => bool
///   heap_'a     :: 'a ptr => 'a
///
/// (splitting validity from data: "while the data at a particular address
/// frequently changes, the validity of an address rarely changes"),
/// plus a copy of every non-heap C global. The state abstraction function
/// `lift_global_heap :: globals => lifted_globals` projects the byte heap
/// through Tuch's heap_lift (Fig 4).
///
//===----------------------------------------------------------------------===//

#ifndef AC_HEAPABS_LIFTEDGLOBALS_H
#define AC_HEAPABS_LIFTEDGLOBALS_H

#include "simpl/Program.h"

namespace ac::heapabs {

/// Name of the generated abstract state record.
inline const char *liftedRecName() { return "lifted_globals"; }

/// Short name of a heap type as used in field names (word32 -> "w32",
/// struct node -> "node_C", word32 ptr -> "p_w32", ...).
std::string heapTypeTag(const hol::TypeRef &T);

/// Field names for one heap type.
std::string heapFieldFor(const hol::TypeRef &T);    ///< heap_<tag>
std::string validFieldFor(const hol::TypeRef &T);   ///< is_valid_<tag>

/// Per-program lifted-state description.
struct LiftedGlobals {
  hol::TypeRef LiftedTy;
  hol::TypeRef ConcreteTy; ///< the globals record
  std::vector<hol::TypeRef> HeapTypes;
  /// Non-heap global fields (name, type), copied verbatim.
  std::vector<std::pair<std::string, hol::TypeRef>> PlainGlobals;

  /// is_valid_'a s p.
  hol::TermRef isValid(const hol::TypeRef &T, hol::TermRef S,
                       hol::TermRef P) const;
  /// heap_'a s p.
  hol::TermRef heapVal(const hol::TypeRef &T, hol::TermRef S,
                       hol::TermRef P) const;
};

/// Builds the lifted_globals record for \p Prog and registers it in the
/// program's record registry.
LiftedGlobals buildLiftedGlobals(simpl::SimplProgram &Prog);

} // namespace ac::heapabs

#endif // AC_HEAPABS_LIFTEDGLOBALS_H

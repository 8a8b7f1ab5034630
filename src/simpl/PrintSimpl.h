//===- PrintSimpl.h - Paper-style Simpl rendering ---------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders Simpl statements in the notation of the paper's Fig 2 (TRY /
/// CATCH / END, IF-THEN-ELSE-FI, `´x :== e`, GUARD, THROW). This rendering
/// is also the "lines of specification" metric for the C-parser column of
/// Table 5.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SIMPL_PRINTSIMPL_H
#define AC_SIMPL_PRINTSIMPL_H

#include "simpl/Program.h"

#include <string>

namespace ac::simpl {

/// Renders a whole function as `NAME_body == <stmt>`.
std::string printSimplFunc(const SimplFunc &F);

/// Lines of the rendered function body (Table 5, C PARSER column).
unsigned simplSpecLines(const SimplFunc &F);

} // namespace ac::simpl

#endif // AC_SIMPL_PRINTSIMPL_H

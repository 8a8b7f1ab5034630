//===- Sources.h - Embedded case-study C sources ----------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C sources of the paper's figures and case studies, embedded so the
/// tests, examples and benchmarks share one copy: Fig 2's max, Euclid's
/// gcd, Fig 3's swap, the binary-search midpoint of Sec 3.2, Suzuki's
/// challenge (Sec 4.3), memset (Sec 4.6), Fig 6's in-place list reversal,
/// and Fig 8's Schorr-Waite implementation (reproduced verbatim from the
/// paper, 19 source lines).
///
//===----------------------------------------------------------------------===//

#ifndef AC_CORPUS_SOURCES_H
#define AC_CORPUS_SOURCES_H

#include <string>

namespace ac::corpus {

const char *maxSource();
const char *gcdSource();
const char *swapSource();
const char *midpointSource();
const char *binarySearchSource();
const char *suzukiSource();
const char *memsetSource();
const char *reverseSource();
const char *schorrWaiteSource();

/// The corpus \p Name names (`acc --corpus`, bench/phase_times): max gcd
/// swap midpoint binary_search suzuki memset reverse schorr_waite, or a
/// Table 5 scale of the synthetic generator: sel4 capdl piccolo
/// echronos. False, leaving \p Out alone, for any other name.
bool namedSource(const std::string &Name, std::string &Out);

} // namespace ac::corpus

#endif // AC_CORPUS_SOURCES_H

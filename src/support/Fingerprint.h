//===- Fingerprint.h - Stable content hashing -------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A streaming 64-bit FNV-1a hasher used to content-address pipeline
/// inputs for the on-disk abstraction cache (core/ResultCache.h). The
/// digest depends only on the fed bytes, never on pointer identity,
/// interning order, or platform, so a fingerprint computed in one process
/// matches any later run over the same input. Variable-length fields are
/// length-prefixed so that adjacent fields cannot alias
/// (("ab","c") != ("a","bc")).
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_FINGERPRINT_H
#define AC_SUPPORT_FINGERPRINT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ac::support {

/// Streaming FNV-1a (64-bit) hasher.
class Fingerprint {
public:
  Fingerprint() = default;
  /// Seeds with another digest (for derived keys).
  explicit Fingerprint(uint64_t Seed) { u64(Seed); }
  /// A hasher that starts from \p Basis instead of the offset basis.
  static Fingerprint fromBasis(uint64_t Basis) {
    Fingerprint F;
    F.H = Basis;
    return F;
  }

  void bytes(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Len; ++I) {
      H ^= P[I];
      H *= 0x100000001b3ull;
    }
  }
  /// Fixed-width little-endian encoding: platform-independent.
  void u64(uint64_t V) {
    unsigned char B[8];
    for (int I = 0; I != 8; ++I)
      B[I] = static_cast<unsigned char>(V >> (8 * I));
    bytes(B, 8);
  }
  void u32(uint32_t V) { u64(V); }
  void boolean(bool B) { u64(B ? 1 : 0); }
  /// Length-prefixed, so field boundaries are unambiguous.
  void str(std::string_view S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }

  uint64_t digest() const { return H; }

  /// 16-char lowercase hex rendering of a digest.
  static std::string hex(uint64_t V);
  /// Inverse of hex(); false if \p S is not 16 hex chars.
  static bool parseHex(std::string_view S, uint64_t &Out);

private:
  uint64_t H = 0xcbf29ce484222325ull; // FNV offset basis
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) over \p Len bytes. Unlike the
/// FNV fingerprints above — which content-address *inputs* — this guards
/// *stored* bytes: every abstraction-cache entry carries its CRC so a
/// torn write or bit flip on disk is detected at load and the damaged
/// entry dropped instead of ever being served (core/ResultCache.cpp).
uint32_t crc32(const void *Data, size_t Len);
inline uint32_t crc32(std::string_view S) {
  return crc32(S.data(), S.size());
}

/// 8-char lowercase hex rendering of a CRC, and its inverse.
std::string crcHex(uint32_t V);
bool parseCrcHex(std::string_view S, uint32_t &Out);

} // namespace ac::support

#endif // AC_SUPPORT_FINGERPRINT_H

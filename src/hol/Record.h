//===- Record.h - Nominal record types --------------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry for the nominal record types a translated program uses: the
/// Simpl state record (locals + globals), the globals record (byte heap +
/// C globals), C struct types, and the per-program lifted_globals record
/// that heap abstraction generates (one `heap_T` / `is_valid_T` field pair
/// per heap type, Sec 4.4).
///
/// The registry is instance-based (owned by a translation context), so
/// different programs in one process never interfere.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_RECORD_H
#define AC_HOL_RECORD_H

#include "hol/Type.h"

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ac::hol {

/// One record type: ordered fields with types.
struct RecordInfo {
  std::string Name;
  std::vector<std::pair<std::string, TypeRef>> Fields;

  const TypeRef *fieldType(const std::string &F) const {
    for (const auto &[Name, Ty] : Fields)
      if (Name == F)
        return &Ty;
    return nullptr;
  }
};

/// All record types known to one translation unit / program.
class RecordRegistry {
public:
  /// Defines (or redefines, for incremental construction) a record.
  void define(RecordInfo Info) { Records[Info.Name] = std::move(Info); }

  const RecordInfo *lookup(const std::string &Name) const {
    auto It = Records.find(Name);
    return It == Records.end() ? nullptr : &It->second;
  }

  const std::map<std::string, RecordInfo> &all() const { return Records; }

private:
  std::map<std::string, RecordInfo> Records;
};

} // namespace ac::hol

#endif // AC_HOL_RECORD_H

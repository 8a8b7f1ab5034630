//===- Type.h - Simply-typed HOL types --------------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type language of the embedded higher-order logic. Types are either
/// type variables ('a, used by polymorphic rules such as WBIND/WTRIV) or
/// applications of a named type constructor to argument types.
///
/// Builtin constructors mirror the Isabelle/HOL types the paper relies on:
/// bool, nat, int, unit, word8/16/32/64 (unsigned machine words),
/// sword8/16/32/64 (signed machine words), 'a ptr, 'a set, 'a option,
/// 'a list, 'a => 'b (fun), 'a * 'b (prod), 'a + 'b (sum), and nominal
/// record types generated per program (state records, split-heap records).
///
/// Types are immutable and shared; structural equality is used throughout.
///
//===----------------------------------------------------------------------===//

#ifndef AC_HOL_TYPE_H
#define AC_HOL_TYPE_H

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ac::hol {

class Type;
using TypeRef = std::shared_ptr<const Type>;

/// An immutable HOL type: a type variable or a constructor application.
class Type {
public:
  enum class Kind { Var, Con };

  Kind kind() const { return K; }
  bool isVar() const { return K == Kind::Var; }
  bool isCon() const { return K == Kind::Con; }

  /// Variable name ('a) or constructor name (fun, word32, ...).
  const std::string &name() const { return Name; }

  const std::vector<TypeRef> &args() const { return Args; }
  const TypeRef &arg(unsigned I) const {
    assert(I < Args.size() && "type argument index out of range");
    return Args[I];
  }

  size_t hash() const { return Hash; }

  /// Unique intern id (see Intern.h): assigned once when the node is
  /// interned, monotonic, and never shared with any other term or type
  /// node — a stable O(1) memo key.
  uint64_t id() const { return Id; }

  /// True if a type variable occurs anywhere inside this type.
  bool hasVar() const { return ContainsVar; }

  /// Constructor-application test against a specific name.
  bool isCon(const std::string &N) const { return K == Kind::Con && Name == N; }

  static TypeRef var(const std::string &Name);
  static TypeRef con(const std::string &Name, std::vector<TypeRef> Args = {});

private:
  Type(Kind K, std::string Name, std::vector<TypeRef> Args, uint64_t Id);

  Kind K;
  std::string Name;
  std::vector<TypeRef> Args;
  size_t Hash;
  uint64_t Id;
  bool ContainsVar;
};

/// Structural type equality.
bool typeEq(const TypeRef &A, const TypeRef &B);

//===----------------------------------------------------------------------===//
// Builtin type factories
//===----------------------------------------------------------------------===//

TypeRef boolTy();
TypeRef natTy();
TypeRef intTy();
TypeRef unitTy();
/// Unsigned machine word of \p Bits (8, 16, 32 or 64).
TypeRef wordTy(unsigned Bits);
/// Signed machine word of \p Bits.
TypeRef swordTy(unsigned Bits);
TypeRef funTy(TypeRef Dom, TypeRef Ran);
TypeRef prodTy(TypeRef A, TypeRef B);
TypeRef optionTy(TypeRef A);
TypeRef listTy(TypeRef A);
/// Typed pointer into the C heap ('a ptr). Pointer values are 32-bit.
TypeRef ptrTy(TypeRef A);
/// Nominal record type (state records, per-program split-heap records).
TypeRef recordTy(const std::string &Name);

/// Chained function type Doms... => Ran.
TypeRef funTys(const std::vector<TypeRef> &Doms, TypeRef Ran);

//===----------------------------------------------------------------------===//
// Type classification helpers
//===----------------------------------------------------------------------===//

/// True for word8..word64 (unsigned machine words).
bool isWordTy(const TypeRef &T);
/// True for sword8..sword64 (signed machine words).
bool isSwordTy(const TypeRef &T);
/// Bit width of a (signed or unsigned) machine word type.
unsigned wordBits(const TypeRef &T);
bool isFunTy(const TypeRef &T);
bool isPtrTy(const TypeRef &T);

/// Domain/range of a function type.
TypeRef domTy(const TypeRef &T);
TypeRef ranTy(const TypeRef &T);

/// Renders a type, e.g. "word32 ptr => word32".
std::string typeStr(const TypeRef &T);

} // namespace ac::hol

#endif // AC_HOL_TYPE_H

// Field lists.  A struct that is fingerprinted (runner::fingerprint_fields)
// or encoded (runner::fields_codec) names its members once, beside itself:
//
//   template <typename V, FieldsOf<LogGPParams> S>
//   void visit_fields(V&& v, S& p) { v(p.L, p.o_s, p.o_r, p.g, p.G); }
//
// The order is the fingerprint feed's and the encoding's.  `S` may be
// const or not, so one list serves every walk over the struct.
// Arithmetic, enum and array members are leaves; other members recurse
// into their own list.  A member left off its list is invisible to the
// fingerprint: add a field and its list entry together.  A deleted field
// whose value was pinned stays on the list as Frozen{value}.
#pragma once

#include <concepts>
#include <string_view>
#include <type_traits>

namespace partib {

template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/// A field added after its struct's fingerprints were pinned.  The hash
/// folds it in, tagged with `name`, only when it differs from `fallback`
/// (its default), so fingerprints that predate it stay bit-identical.
template <typename T>
struct Defaulted {
  std::string_view name;
  T& value;
  const std::remove_const_t<T>& fallback;
};

/// A field deleted after its struct's fingerprints were pinned: its one
/// value became a constant, and the list keeps feeding that constant at
/// the field's old position so those fingerprints stay bit-identical.
/// Hashed like a leaf; it is not a member, so walks that perturb or count
/// members skip it.
template <typename T>
struct Frozen {
  T value;
};

}  // namespace partib

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
// fingerprint: add a field and its list entry together.
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

}  // namespace partib

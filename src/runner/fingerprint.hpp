// Content fingerprints for trial configurations.
//
// The experiment runner (runner/runner.hpp) derives RNG seeds from a
// 64-bit fingerprint of the trial's *entire* configuration — every field
// that can influence the simulated timeline must be mixed in, or two
// genuinely different trials would share a seed.  The hash is FNV-1a over
// an explicit, length-prefixed feed (no struct memcpy: padding bytes and
// pointer values must never leak in), so fingerprints are stable across
// processes, runs, and ASLR — which the pinned figure output seeded from
// them requires.  fingerprint_fields() generates the feed from the
// config's field list (common/fields.hpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/fields.hpp"

namespace partib::runner {

/// Incremental FNV-1a (64-bit) over typed fields.  Methods return *this
/// so call sites can chain: `h.str("overhead/v1").u64(bytes).f64(noise)`.
class Hasher {
 public:
  Hasher& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
    return *this;
  }

  Hasher& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= kFnvPrime;
    }
    return *this;
  }

  Hasher& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

  /// Doubles are hashed by bit pattern: two configs differing in the last
  /// ulp are different configs.  (-0.0 and 0.0 therefore differ too —
  /// harmless, and cheaper than canonicalising.)
  Hasher& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  Hasher& boolean(bool v) { return u64(v ? 1 : 0); }

  /// Length-prefixed so consecutive strings cannot alias ("ab","c" vs
  /// "a","bc").
  Hasher& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  static constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

  std::uint64_t h_ = kFnvOffsetBasis;
};

namespace detail {

/// Hash walk over a field list: unsigned integers feed u64, signed
/// integers and enums i64, doubles f64, bools boolean; nested structs
/// recurse, and a strategy pointer (anything with `->describe()`) feeds
/// its describe() string, "none" when null.
struct HashWalk {
  Hasher& h;

  template <typename... Fields>
  void operator()(const Fields&... fields) { (leaf(fields), ...); }

  template <typename T>
  void leaf(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      h.boolean(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      h.f64(v);
    } else if constexpr (std::is_enum_v<T> || std::is_signed_v<T>) {
      h.i64(static_cast<std::int64_t>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      h.u64(v);
    } else if constexpr (requires { v->describe(); }) {
      h.str(v ? v->describe() : "none");
    } else {
      visit_fields(*this, v);
    }
  }

  /// Absent while default; name-tagged otherwise, so two such fields
  /// holding equal values cannot alias.
  template <typename T>
  void leaf(const Defaulted<T>& f) {
    if (f.value == f.fallback) return;
    h.str(f.name);
    leaf(f.value);
  }
};

}  // namespace detail

/// The schema tag (e.g. "overhead/v1"), then every field of `obj`'s list.
/// A tag is frozen: `seed == 0` trials derive their seed from this hash,
/// so a new tag re-seeds them and moves their pinned output.
template <typename T>
std::uint64_t fingerprint_fields(std::string_view tag, const T& obj) {
  Hasher h;
  h.str(tag);
  visit_fields(detail::HashWalk{h}, obj);
  return h.digest();
}

/// Deterministic per-trial RNG seed from a config fingerprint (splitmix64
/// finalizer).  Never returns 0 so the result is always distinguishable
/// from "no seed chosen" sentinels.
inline std::uint64_t derive_seed(std::uint64_t fingerprint) {
  std::uint64_t z = fingerprint + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 0x9E3779B97F4A7C15ULL : z;
}

/// Fixed-width lowercase hex, the format of perfbench's row digests.
inline std::string to_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace partib::runner

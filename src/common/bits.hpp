// Small bit-manipulation helpers (checked wrappers over <bit>).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace partib {

constexpr bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr std::size_t next_pow2(std::size_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

constexpr std::size_t prev_pow2(std::size_t v) {
  return v == 0 ? 0 : std::bit_floor(v);
}

/// floor(log2(v)); v must be nonzero.
constexpr unsigned log2_floor(std::size_t v) {
  return static_cast<unsigned>(std::bit_width(v) - 1);
}

/// Ceiling division for non-negative integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

// -- 64-bit bitmap helpers ---------------------------------------------------
// The partition flag arrays on the Pready fast path are uint64_t bitmaps;
// run detection works word-wise with count-trailing-zeros.  Wrapped here
// so the callers read as algorithms, not as <bit> incantations, and so the
// countr_zero(0) == 64 convention is pinned in one place.

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t bitmap_words(std::size_t bits) {
  return ceil_div(bits, std::size_t{64});
}

/// Trailing zero count; returns 64 for v == 0 (std::countr_zero contract).
constexpr unsigned ctz64(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

constexpr unsigned popcount64(std::uint64_t v) {
  return static_cast<unsigned>(std::popcount(v));
}

constexpr bool bitmap_test(const std::uint64_t* words, std::size_t bit) {
  return (words[bit / 64] >> (bit % 64)) & 1u;
}

constexpr void bitmap_set(std::uint64_t* words, std::size_t bit) {
  words[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

/// Mask with bits [lo, hi) of a word set; lo <= hi <= 64.
/// Guards the `x >> 64` / `x << 64` UB corners of the shift operators.
constexpr std::uint64_t bitmap_range_mask(unsigned lo, unsigned hi) {
  const std::uint64_t upto_hi = hi >= 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << hi) - 1;
  const std::uint64_t below_lo = lo >= 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << lo) - 1;
  return upto_hi & ~below_lo;
}

/// Invoke fn(w, mask) for each word w holding bits of [first, first +
/// count), in ascending order; `mask` selects the range's bits in word w.
template <typename Fn>
void for_each_range_word(std::size_t first, std::size_t count, Fn&& fn) {
  if (count == 0) return;
  const std::size_t last = first + count - 1;  // inclusive
  for (std::size_t w = first / 64; w <= last / 64; ++w) {
    const auto lo = w == first / 64 ? static_cast<unsigned>(first % 64) : 0u;
    const auto hi = w == last / 64 ? static_cast<unsigned>(last % 64) + 1 : 64u;
    fn(w, bitmap_range_mask(lo, hi));
  }
}

/// Invoke fn(run_first, run_count) for every maximal run of bits that
/// `take` reports within [first, first + count), in ascending order.
/// take(w, mask) is called once per word, as for_each_range_word calls
/// fn, and returns the bits of word w to report (a subset of `mask`); it
/// may update the word as it goes.  A run crossing a word boundary is
/// reported once, not per word.
template <typename Take, typename Fn>
void for_each_bit_run(std::size_t first, std::size_t count, Take&& take,
                      Fn&& fn) {
  std::size_t run_start = 0;
  std::size_t run_len = 0;  // 0 == no run currently open
  for_each_range_word(first, count, [&](std::size_t w, std::uint64_t mask) {
    std::uint64_t bits = take(w, mask);
    while (bits != 0) {
      const unsigned s = ctz64(bits);
      // Length of the all-ones run starting at bit s: the shifted word has
      // its low `ones` bits set, so counting trailing zeros of the
      // complement measures the run (ctz64(0) == 64 covers a full word).
      const unsigned ones = ctz64(~(bits >> s));
      const std::size_t start = w * 64 + s;
      if (run_len != 0 && start == run_start + run_len) {
        // Continues the run left open by the previous word.
        run_len += ones;
      } else {
        if (run_len != 0) fn(run_start, run_len);
        run_start = start;
        run_len = ones;
      }
      bits = s + ones >= 64 ? 0 : bits & (~std::uint64_t{0} << (s + ones));
    }
  });
  if (run_len != 0) fn(run_start, run_len);
}

// -- simulated DMA addressing ------------------------------------------------
// WRs, SGEs and MRs carry buffer addresses as the 64-bit integers real
// verbs puts on the wire.  These two helpers are the only sanctioned
// pointer<->wire-address conversions in the codebase (std::bit_cast, so
// clang-tidy's reinterpret_cast checks stay clean); the simulator only
// ever converts back addresses it previously derived from live buffers.

inline std::uint64_t wire_addr(const void* p) {
  static_assert(sizeof(void*) == sizeof(std::uint64_t),
                "simulated DMA addressing requires 64-bit pointers");
  return std::bit_cast<std::uint64_t>(p);
}

template <typename T = std::byte>
inline T* wire_ptr(std::uint64_t addr) {
  static_assert(sizeof(T*) == sizeof(std::uint64_t),
                "simulated DMA addressing requires 64-bit pointers");
  return std::bit_cast<T*>(addr);
}

}  // namespace partib

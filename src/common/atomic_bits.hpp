// Atomic claim operations over the uint64 partition bitmaps (bits.hpp).
//
// The threaded runtime lets N producer threads race on pready /
// pready_range for the same channel.  Exactly-once semantics come from
// one primitive: an atomic fetch_or on the bitmap word — the bits that
// were 0 in the fetched value and 1 in the mask belong to this caller and
// nobody else, with no lock and no retry loop.  Everything downstream
// (the MPSC hand-off, the bridge-side plain pready apply) only ever sees
// each partition once because ownership was decided here.
//
// The words live in plain std::vector<uint64_t> storage shared with
// single-threaded readers, so these helpers use the __atomic_* builtins
// on uint64_t lvalues rather than std::atomic<uint64_t> members: the same
// buffer is read non-atomically by the bridge thread after quiescence
// (publication via the shard mutex / thread join), and GCC and TSan both
// model the builtins on ordinary objects correctly.  C++20 atomic_ref
// would express the same thing; the builtins avoid its alignment-traps on
// the older toolchains the CI matrix still covers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"

namespace partib {

/// Atomically OR `mask` into `word`; returns the bits NEWLY set by this
/// call (mask & ~previous).  Release-on-success is unnecessary — claims
/// carry no payload of their own; the hand-off ring publishes the claim.
inline std::uint64_t atomic_claim_word(std::uint64_t& word,
                                       std::uint64_t mask) {
  const std::uint64_t prev =
      __atomic_fetch_or(&word, mask, __ATOMIC_RELAXED);
  return mask & ~prev;
}

/// Atomically claim bit `bit` of the bitmap.  True iff this caller won
/// (the bit was clear before).
inline bool atomic_claim_bit(std::uint64_t* words, std::size_t bit) {
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  return (atomic_claim_word(words[bit / 64], mask) & mask) != 0;
}

/// Atomic read of one bit (acquire: pairs with the release publication of
/// whatever state the bit advertises, e.g. the parrived mirror updated on
/// the bridge thread).
inline bool atomic_test_bit(const std::uint64_t* words, std::size_t bit) {
  const std::uint64_t word =
      __atomic_load_n(&words[bit / 64], __ATOMIC_ACQUIRE);
  return (word >> (bit % 64)) & 1u;
}

/// Atomically set one bit with release semantics (publisher side of
/// atomic_test_bit).
inline void atomic_publish_bit(std::uint64_t* words, std::size_t bit) {
  __atomic_fetch_or(&words[bit / 64], std::uint64_t{1} << (bit % 64),
                    __ATOMIC_RELEASE);
}

/// Claim every still-unclaimed bit in [first, first + count) and invoke
/// `fn(run_first, run_count)` for each maximal run of bits this caller
/// newly won, merging runs across word boundaries (same contract as
/// part::flush_pending_runs, but against concurrent claimers).  Returns
/// the number of bits claimed.
template <typename Fn>
std::size_t atomic_claim_range(std::uint64_t* words, std::size_t first,
                               std::size_t count, Fn&& fn) {
  std::size_t claimed = 0;
  for_each_bit_run(
      first, count,
      [words, &claimed](std::size_t w, std::uint64_t mask) {
        const std::uint64_t won = atomic_claim_word(words[w], mask);
        claimed += popcount64(won);
        return won;
      },
      fn);
  return claimed;
}

}  // namespace partib

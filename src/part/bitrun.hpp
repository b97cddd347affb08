// Word-wise contiguous-run detection over the partition bitmaps.
//
// The timer aggregator's early-bird flush (§IV-D) must send every maximal
// contiguous run of partitions that have arrived but not yet been sent.
// The seed implementation scanned a byte per partition; here the flags
// are uint64_t bitmaps and runs are extracted 64 partitions at a time with
// countr_zero, so a fully-arrived 64-partition group costs two word ops
// instead of a 64-iteration loop.
//
// The emission order is pinned by the differential test
// (tests/part/bitrun_test.cpp) against a verbatim copy of the byte-scan:
// runs are reported in ascending partition order, each maximal, and the
// callback sees exactly the same (first, count) sequence the byte-scan
// produced — the figure CSV fingerprints depend on it, because each run
// becomes one WR post in that order.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"

namespace partib::part {

/// Invoke fn(first, count) for every maximal run of bits that are set in
/// `arrived` and clear in `sent` within [base, base + len), marking the
/// run's bits in `sent`.  Runs are emitted in ascending order; a run
/// crossing a word boundary is emitted once, not per word.
template <typename Fn>
void flush_pending_runs(const std::uint64_t* arrived, std::uint64_t* sent,
                        std::size_t base, std::size_t len, Fn&& fn) {
  for_each_bit_run(
      base, len,
      [arrived, sent](std::size_t w, std::uint64_t mask) {
        const std::uint64_t pending = arrived[w] & ~sent[w] & mask;
        sent[w] |= pending;
        return pending;
      },
      fn);
}

/// Set bits [first, first + count) in `words` (the whole-group send path,
/// where run detection is unnecessary).
inline void bitmap_set_range(std::uint64_t* words, std::size_t first,
                             std::size_t count) {
  for_each_range_word(first, count, [words](std::size_t w, std::uint64_t mask) {
    words[w] |= mask;
  });
}

}  // namespace partib::part

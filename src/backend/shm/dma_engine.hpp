// The shm transport's copy engine: the stand-in for an HCA's DMA engines.
//
// On InfiniBand the payload of an RDMA write is moved by the adapter, not
// by a host thread.  The shm transport has no adapter, so its delivering
// pump thread copies every byte itself, and a large write costs one
// core's memcpy bandwidth.  A DmaEngine splits each copy of kSplitBytes
// or more into kChunkBytes chunks that the calling thread and up to
// kMaxHelpers helper threads copy together; copy() returns only when
// every chunk has landed, so callers keep memcpy's contract.
//
// Work sharing: one atomic cursor word holds (generation | chunk count |
// next chunk).  The caller publishes a job (dst, src, bytes) and then a
// new cursor word; every participant claims a chunk by compare-and-swap
// on that word, and a claim succeeds only while the word still carries
// the generation whose job it read and a chunk left to claim.  A helper
// that reads a later job's fields has a fully claimed generation in
// hand, so it claims nothing with them.  The caller claims chunks too,
// so a copy never waits for a helper to wake up; it waits only for
// chunks a helper has already claimed (the `done` count).
//
// Helpers start on the first split copy.  They spin for kHelperSpin after
// their last chunk (back-to-back copies find them awake), then park on
// an atomic wait; the destructor wakes and joins them.  Plain memcpy is
// taken for copies under kSplitBytes or over kMaxSplitBytes, on a
// one-CPU host (no helpers), and by a second caller while a job is
// running (several owner threads sharing one transport): one job at a
// time, never a queue.
//
// Callers reach the engine through dma_copy(): ShmTransport installs its
// engine with a DmaScope around each op's move_data(), and everywhere else
// (the DES fabric, foreign threads) dma_copy is memcpy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace partib::backend {

class DmaEngine {
 public:
  /// Copies at least this large are split; smaller ones are one memcpy.
  /// Median per copy, memcpy -> split, helpers awake, 4-core Xeon KVM
  /// guest: from a 64 MiB pool (memory-bound) 128 KiB 17 -> 7 us,
  /// 256 KiB 35 -> 13 us, 512 KiB 75 -> 23 us; from L2-resident buffers
  /// 128 KiB 4.0 -> 5.8 us, 256 KiB 7.9 -> 9.2 us, 512 KiB 15.4 -> 13.5
  /// us.  Waking parked helpers adds ~5 us.  256 KiB gives up about a
  /// microsecond on cache-warm copies at the threshold and gains most
  /// where a copy streams from memory.
  static constexpr std::size_t kSplitBytes = 256 * KiB;
  /// Unit of work a participant claims: large enough that claim traffic
  /// on the cursor is noise, small enough to balance a 256 KiB copy.
  static constexpr std::size_t kChunkBytes = 64 * KiB;
  /// The cursor counts chunks in 16 bits; larger copies are one memcpy.
  static constexpr std::size_t kMaxSplitBytes = 0xFFFF * kChunkBytes;
  /// Helper threads per engine, further capped at the host's CPU count
  /// minus one (the caller's own core).
  static constexpr unsigned kMaxHelpers = 3;
  /// How long a helper keeps polling for the next job after its last
  /// chunk before it parks.  About one timer slack, like the pump's spin
  /// horizon (backend/shm/shm_backend.cpp): a shorter gap between copies
  /// is cheaper to spin through than to sleep and be woken.
  static constexpr Duration kHelperSpin = usec(50);

  DmaEngine();
  ~DmaEngine();
  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// memcpy(dst, src, n), split across the helpers when n >= kSplitBytes.
  /// Returns when every byte has landed.  Thread-safe: a call that finds
  /// another job running copies on its own.
  void copy(void* dst, const void* src, std::size_t n);

  /// Helper threads this engine starts (0 on a one-CPU host).
  unsigned max_helpers() const { return max_helpers_; }
  /// Helper threads started so far (0 until the first split copy).
  std::size_t started() const { return helpers_.size(); }
  /// Helpers currently parked on the wake word.
  unsigned parked() const { return parked_.load(std::memory_order_acquire); }

 private:
  struct Job {
    std::byte* dst;
    const std::byte* src;
    std::size_t bytes;
  };

  /// Claim and copy chunks of generation `gen` until none is left.
  void work(const Job& job, std::uint32_t gen);
  void helper_main();
  /// Block until the generation moves past `seen` or stop is requested.
  void park(std::uint32_t seen);

  const unsigned max_helpers_;

  // The published job.  Atomics because a late helper may read them
  // while the next caller writes them; it then claims nothing (see
  // work()).
  std::atomic<std::byte*> dst_{nullptr};
  std::atomic<const std::byte*> src_{nullptr};
  std::atomic<std::size_t> bytes_{0};

  /// generation << 32 | chunk count << 16 | next unclaimed chunk.
  std::atomic<std::uint64_t> cursor_{0};
  /// Chunks of the current job copied so far.
  std::atomic<std::uint32_t> done_{0};
  /// Set while a caller owns the job slot.
  std::atomic_flag busy_;

  /// Bumped to wake parked helpers; they wait on its value.
  std::atomic<std::uint32_t> wake_{0};
  std::atomic<unsigned> parked_{0};
  std::atomic<bool> stop_{false};

  /// Written only by the caller holding busy_, and by the destructor.
  std::vector<std::thread> helpers_;
};

/// Makes `engine` the calling thread's copy engine for the scope's
/// lifetime (restoring the previous one after).  nullptr means memcpy.
class DmaScope {
 public:
  explicit DmaScope(DmaEngine* engine);
  ~DmaScope();
  DmaScope(const DmaScope&) = delete;
  DmaScope& operator=(const DmaScope&) = delete;

 private:
  DmaEngine* prev_;
};

/// Payload copy for the verbs delivery path: the calling thread's scoped
/// engine when there is one, plain memcpy otherwise.
void dma_copy(void* dst, const void* src, std::size_t n);

}  // namespace partib::backend

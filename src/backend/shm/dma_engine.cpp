#include "backend/shm/dma_engine.hpp"

#include <algorithm>
#include <cstring>
#include <system_error>

#include "common/bits.hpp"
#include "common/clock.hpp"

namespace partib::backend {
namespace {

// The cursor word: generation << 32 | chunk count << 16 | next chunk.
constexpr std::uint32_t gen_of(std::uint64_t cursor) {
  return static_cast<std::uint32_t>(cursor >> 32);
}
constexpr std::uint32_t chunks_of(std::uint64_t cursor) {
  return static_cast<std::uint32_t>(cursor >> 16) & 0xFFFF;
}
constexpr std::uint32_t next_of(std::uint64_t cursor) {
  return static_cast<std::uint32_t>(cursor) & 0xFFFF;
}

unsigned helper_cap() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return cpus > 1 ? std::min(DmaEngine::kMaxHelpers, cpus - 1) : 0;
}

thread_local DmaEngine* t_engine = nullptr;

}  // namespace

DmaEngine::DmaEngine() : max_helpers_(helper_cap()) {}

DmaEngine::~DmaEngine() {
  stop_.store(true, std::memory_order_seq_cst);
  wake_.fetch_add(1, std::memory_order_seq_cst);
  wake_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void DmaEngine::copy(void* dst, const void* src, std::size_t n) {
  if (n < kSplitBytes || n > kMaxSplitBytes || max_helpers_ == 0 ||
      busy_.test_and_set(std::memory_order_acquire)) {
    std::memcpy(dst, src, n);
    return;
  }
  if (helpers_.empty()) {
    for (unsigned i = 0; i < max_helpers_; ++i) {
      try {
        helpers_.emplace_back([this] { helper_main(); });
      } catch (const std::system_error&) {
        break;  // out of threads: the caller copies what no helper claims
      }
    }
  }
  const Job job{static_cast<std::byte*>(dst),
                static_cast<const std::byte*>(src), n};
  const auto chunks = static_cast<std::uint32_t>(ceil_div(n, kChunkBytes));
  dst_.store(job.dst, std::memory_order_relaxed);
  src_.store(job.src, std::memory_order_relaxed);
  bytes_.store(job.bytes, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  // Publishing the new generation releases the job fields.  seq_cst
  // pairs with park(): either a parking helper sees this generation or
  // this thread sees it parked and wakes it.
  const std::uint32_t gen =
      gen_of(cursor_.load(std::memory_order_relaxed)) + 1;
  cursor_.store(std::uint64_t{gen} << 32 | std::uint64_t{chunks} << 16,
                std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    wake_.fetch_add(1, std::memory_order_seq_cst);
    wake_.notify_all();
  }
  work(job, gen);
  // Chunks a helper claimed may still be in flight.  Yield rather than
  // spin: when the scheduler has put that helper on this thread's CPU,
  // spinning would keep it from finishing until the next tick.
  while (done_.load(std::memory_order_acquire) != chunks) {
    std::this_thread::yield();
  }
  busy_.clear(std::memory_order_release);
}

void DmaEngine::work(const Job& job, std::uint32_t gen) {
  // The chunk count is read from the same word the claim compares, so a
  // claim succeeds only while job `gen` has a chunk left.  Until then its
  // caller is still waiting, so the job fields have not been reused and
  // `job` (read after this generation was seen) is job `gen`'s.
  std::uint64_t cur = cursor_.load(std::memory_order_acquire);
  for (;;) {
    if (gen_of(cur) != gen || next_of(cur) >= chunks_of(cur)) return;
    if (!cursor_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acquire)) {
      continue;
    }
    const std::size_t off = std::size_t{next_of(cur)} * kChunkBytes;
    std::memcpy(job.dst + off, job.src + off,
                std::min(kChunkBytes, job.bytes - off));
    done_.fetch_add(1, std::memory_order_release);
    ++cur;
  }
}

void DmaEngine::helper_main() {
  std::uint32_t seen = 0;
  Time idle_since = common::mono_now();
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint32_t gen = gen_of(cursor_.load(std::memory_order_acquire));
    if (gen != seen) {
      seen = gen;
      // A stalled helper may read a later job's fields here; job `gen` is
      // then fully claimed, so work() claims nothing with them.
      work({dst_.load(std::memory_order_relaxed),
            src_.load(std::memory_order_relaxed),
            bytes_.load(std::memory_order_relaxed)},
           gen);
      idle_since = common::mono_now();
    } else if (common::mono_now() - idle_since < kHelperSpin) {
      // Yield, for the same reason: a helper sharing the caller's CPU
      // must not hold it away from the caller while there is no job.
      std::this_thread::yield();
    } else {
      park(seen);
      idle_since = common::mono_now();
    }
  }
}

void DmaEngine::park(std::uint32_t seen) {
  const std::uint32_t w = wake_.load(std::memory_order_seq_cst);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  if (gen_of(cursor_.load(std::memory_order_seq_cst)) == seen &&
      !stop_.load(std::memory_order_seq_cst)) {
    wake_.wait(w, std::memory_order_seq_cst);
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

DmaScope::DmaScope(DmaEngine* engine) : prev_(t_engine) { t_engine = engine; }

DmaScope::~DmaScope() { t_engine = prev_; }

void dma_copy(void* dst, const void* src, std::size_t n) {
  if (t_engine != nullptr) {
    t_engine->copy(dst, src, n);
  } else {
    std::memcpy(dst, src, n);
  }
}

}  // namespace partib::backend

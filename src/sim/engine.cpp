#include "sim/engine.hpp"

#include <limits>
#include <memory>

#include "common/diag.hpp"

namespace partib::sim {

namespace {
constexpr Time kMaxTime = std::numeric_limits<Time>::max();
}  // namespace

Engine::~Engine() {
  // When every callback ever scheduled was trivially destructible (the
  // common case: captures of references and scalars), the teardown walk
  // over every constructed slot would be pure memory traffic — skip it.
  if (nontrivial_cb_) {
    for (std::uint32_t i = 0; i < slot_count_; ++i) slot_ref(i).~Slot();
  }
  std::allocator<Slot> alloc;
  for (Slot* slab : slabs_) alloc.deallocate(slab, kSlabSize);
}

void Engine::grow_slots() {
  slabs_.push_back(std::allocator<Slot>().allocate(kSlabSize));
  const std::size_t cap = slabs_.size() * kSlabSize;
  slot_seq_.resize(cap);
  slot_next_.resize(cap);
  slot_time_.resize(cap);
}

void Engine::refile_bucket(unsigned b) {
  // Detach the whole list first: file() may append to bucket b itself
  // (compaction), and the walk below must see only the old entries.
  std::uint32_t s = buckets_[b].head;
  buckets_[b].head = kNil;
  occupied_ &= ~(std::uint64_t{1} << b);
  while (s != kNil) {
    const std::uint32_t next = slot_next_[s];
    if (slot_seq_[s] == 0) {
      free_list_.push_back(s);
      --dead_;
    } else {
      file(s, slot_time_[s]);
    }
    s = next;
  }
}

Engine::EventId Engine::schedule_at(Time t, Callback cb, const char* site) {
  PARTIB_ASSERT(cb != nullptr);
  const EventId id = schedule_slot(t, site);
  Slot& s = slot_ref(id.slot);
  s.cb = std::move(cb);
  if (s.cb.needs_destroy()) nontrivial_cb_ = true;
  return id;
}

Engine::EventId Engine::schedule_after(Duration d, Callback cb,
                                       const char* site) {
  PARTIB_ASSERT_MSG(d >= 0, "negative delay");
  return schedule_at(now_ + d, std::move(cb), site);
}

bool Engine::cancel(EventId id) {
  if (!id.valid() || id.slot >= slot_count_) return false;
  if (slot_seq_[id.slot] != id.seq) {
    return false;  // already ran, cancelled, or reused
  }
  slot_seq_[id.slot] = 0;
  Slot& s = slot_ref(id.slot);
  s.site = nullptr;
  s.cb = nullptr;
  --live_;
  ++dead_;
  // The slot stays linked in its bucket as a tombstone and is freed when
  // it surfaces.  Compact when tombstones clearly dominate so cancel-heavy
  // workloads (armed-then-disarmed aggregation timers) stay bounded; the
  // floor (1024 slots ~ 100 KiB) keeps small queues from compacting at
  // all.
  if (dead_ > 1024 && dead_ > 4 * live_) compact();
  return true;
}

void Engine::compact() {
  // Every live entry refiles into the bucket it came from (`last_` is
  // unchanged), so order is kept and each bucket's minimum becomes exact.
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (buckets_[b].head != kNil) refile_bucket(b);
  }
}

bool Engine::step() {
  if (!settle(kMaxTime)) return false;
  dispatch_front();
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (settle(kMaxTime)) {
    dispatch_front();
    ++n;
  }
  return n;
}

std::size_t Engine::run_until(Time deadline) {
  PARTIB_ASSERT_MSG(deadline >= now_, "deadline in the past");
  std::size_t n = 0;
  while (settle(deadline)) {
    dispatch_front();
    ++n;
  }
  now_ = deadline;
  return n;
}

std::size_t Engine::run_pumped(const std::function<bool()>& pump) {
  std::size_t n = 0;
  for (;;) {
    n += run();
    if (!pump() && empty()) return n;
  }
}

}  // namespace partib::sim

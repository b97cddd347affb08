// Discrete-event simulation engine.
//
// The engine owns virtual time for an entire simulated cluster.  Components
// (NICs, wires, CPU cores, aggregation timers) schedule callbacks at future
// virtual instants; `run()` dispatches them in (time, insertion-order).
// Determinism is a hard requirement — the engine is the clock for every
// benchmark figure — so ties are broken by a monotonically increasing
// sequence number, never by pointer or hash order.
//
// Hot-path layout (see docs/PERF.md): pending events live in a slot table
// of `common::InlineFn<void()>` callbacks — move-only, 48-byte inline
// buffer, so typical capture sets never touch the allocator.  The queue
// is a monotone radix heap: nothing is ever scheduled below the last key
// popped (`last_`), so an event with key t is filed in bucket
// bit_width(t ^ last_), an intrusive FIFO through the slot table.  Bucket
// 0 holds exactly the events at `last_`; when it runs dry the lowest
// non-empty bucket is split at its minimum, which relinks its entries in
// order into strictly lower buckets.  Equal keys always share a bucket
// and keep schedule order, so dispatch order is exactly `(time, seq)` —
// byte-identical to the original `std::map<(time, seq), Event>`
// implementation (proven by tests/sim/engine_differential_test.cpp) —
// with O(1) schedule and amortized O(log(key spread)) dispatch, no hash
// table and no comparison heap.  `cancel` is O(1) lazy: the slot's seq
// doubles as its generation; cancelling retires the generation and the
// dead list entry is discarded when it surfaces (with an amortized
// compaction pass so cancel-heavy workloads cannot grow the queue
// without bound).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/inline_fn.hpp"
#include "common/time.hpp"

namespace partib::sim {

class Engine {
 public:
  using Callback = common::InlineFn<void()>;

  /// Observer invoked at every event dispatch with the event's (time,
  /// sequence number, scheduling-site tag).  The check/ determinism
  /// auditor attaches here to hash the dispatch stream; the hook is
  /// generic so tracing tools can use it too.  `site` is the tag passed
  /// to schedule_at/schedule_after (nullptr when the caller gave none).
  /// Cold path — stays a std::function for copyability.
  using DispatchObserver =
      std::function<void(Time, std::uint64_t, const char*)>;

  /// Token for cancelling a pending event (e.g. disarming an aggregation
  /// timer when all partitions arrive before the deadline).  `slot` is
  /// the engine-internal storage index; `seq` doubles as the slot's
  /// generation, so a stale id (already ran / already cancelled / slot
  /// reused) is rejected in O(1) without any lookup structure.
  struct EventId {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool valid() const { return seq != 0; }
  };

  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule `cb` at absolute virtual time `t` (must be >= now()).
  /// `site` optionally names the scheduling call-site (a string literal;
  /// the engine stores the pointer, not a copy) for dispatch observers.
  EventId schedule_at(Time t, Callback cb, const char* site = nullptr);

  /// Schedule `cb` `d` nanoseconds from now (d must be >= 0).
  EventId schedule_after(Duration d, Callback cb, const char* site = nullptr);

  /// Hot-path overloads: constructing the callback directly in its slot
  /// skips the temporary InlineFn and its relocation entirely.  Any
  /// callable a Callback accepts lands here; passing an actual Callback
  /// picks the non-template overloads above.
  template <typename Fn>
    requires(!std::is_same_v<std::remove_cvref_t<Fn>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<Fn>&>)
  EventId schedule_at(Time t, Fn&& fn, const char* site = nullptr) {
    const EventId id = schedule_slot(t, site);
    slot_ref(id.slot).cb.emplace(std::forward<Fn>(fn));
    if constexpr (Callback::needs_destroy_for<Fn>()) nontrivial_cb_ = true;
    return id;
  }

  template <typename Fn>
    requires(!std::is_same_v<std::remove_cvref_t<Fn>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<Fn>&>)
  EventId schedule_after(Duration d, Fn&& fn, const char* site = nullptr) {
    PARTIB_ASSERT_MSG(d >= 0, "negative delay");
    return schedule_at(now_ + d, std::forward<Fn>(fn), site);
  }

  /// Remove a pending event.  Returns false if it already ran, was already
  /// cancelled, or the id is invalid.  O(1).
  bool cancel(EventId id);

  /// Dispatch the single earliest event.  Returns false if none pending.
  bool step();

  /// Dispatch until no events remain.  Returns the number dispatched.
  std::size_t run();

  /// Dispatch every event with time <= deadline, then advance the clock to
  /// `deadline` even if idle.  Returns the number dispatched.
  std::size_t run_until(Time deadline);

  /// Real-time bridge loop for the threaded runtime (src/runtime/): drain
  /// the event queue, then invoke `pump` to inject work arriving from
  /// producer threads (shard-ring drains).  `pump` returns true to keep
  /// pumping; the loop exits once pump says stop *and* the queue is empty
  /// (a stop verdict that scheduled new events keeps the loop alive until
  /// they drain).  The engine itself stays single-threaded: only the
  /// calling thread ever touches it, and `pump` is where cross-thread
  /// hand-off happens.  Returns the number of events dispatched.
  std::size_t run_pumped(const std::function<bool()>& pump);

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::uint64_t processed_count() const { return processed_; }

  /// A lower bound on the earliest pending event's time, or nullopt when
  /// nothing is pending.  O(1) and const: it reads the radix structure
  /// without settling it (`last_` never moves), so every schedule_at that
  /// was legal before the call stays legal after it.  Cancelled entries
  /// still filed can only make the bound earlier, never later.  Real-time
  /// backends use it to decide how long their pump may wait.
  std::optional<Time> next_time_bound() const {
    if (live_ == 0) return std::nullopt;
    // Bucket 0 holds keys equal to `last_`, the lowest any key can be.
    // Otherwise buckets order their keys (every key in bucket b is below
    // every key in bucket b+1), so the lowest occupied one bounds them
    // all; a live event is filed somewhere, so one is occupied.
    if (buckets_[0].head != kNil) return last_;
    const std::uint64_t upper = occupied_ & ~std::uint64_t{1};
    return buckets_[static_cast<unsigned>(std::countr_zero(upper))].min;
  }

  /// Install (or clear, with nullptr) the dispatch observer.
  void set_dispatch_observer(DispatchObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Keys are non-negative Times, so `t ^ last_` < 2^63 and its bit width
  /// (the bucket index) is at most 63.
  static constexpr unsigned kBuckets = 64;

  /// Event payload: exactly one cache line (56-byte InlineFn + site
  /// tag).  The queue-structure fields that other events' operations
  /// touch — the FIFO link, the generation and the key — live in dense
  /// parallel arrays (slot_next_, slot_seq_, slot_time_) instead: filing
  /// or splitting past other events then reads packed arrays, not cold
  /// 64-byte slots.
  struct Slot {
    Callback cb;
    const char* site = nullptr;
  };

  /// One radix bucket: a FIFO of slots linked through slot_next_, plus
  /// the smallest key filed in it since it was last empty.  Cancel does
  /// not raise `min`, so it is a lower bound on the bucket's live keys
  /// (and exact once dead entries are gone).  A bucket is empty iff
  /// `head == kNil`; `tail` is only meaningful while it is not.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    Time min = 0;
  };

  // Slots live in fixed-size raw slabs, not one contiguous vector:
  // growth never moves existing slots (a vector realloc would run the
  // InlineFn move per 64-byte slot), addresses stay stable for the
  // lifetime of the engine, and slots are constructed lazily on first
  // use so a short-lived engine touches only the slots it needs.
  static constexpr std::uint32_t kSlabBits = 10;
  static constexpr std::uint32_t kSlabSize = 1u << kSlabBits;

  Time now_ = 0;
  Time last_ = 0;  // radix base: the last key popped, <= every pending key
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet dispatched or cancelled
  std::size_t dead_ = 0;  // cancelled tombstones still linked in buckets
  std::array<Bucket, kBuckets> buckets_{};
  // Bit b set iff bucket b is non-empty; bit 0 may lag a dispatch that
  // emptied bucket 0 until the next settle() clears it.
  std::uint64_t occupied_ = 0;
  std::vector<Slot*> slabs_;     // uninitialized past slot_count_
  std::uint32_t slot_count_ = 0;  // slots constructed so far, ever
  std::vector<std::uint64_t> slot_seq_;   // generation; 0 = dead slot
  std::vector<std::uint32_t> slot_next_;  // FIFO link within a bucket
  std::vector<Time> slot_time_;           // the slot's key
  std::vector<std::uint32_t> free_list_;
  bool nontrivial_cb_ = false;  // any pending cb may need a destructor
  DispatchObserver observer_;

  Slot& slot_ref(std::uint32_t i) {
    return slabs_[i >> kSlabBits][i & (kSlabSize - 1)];
  }

  /// Refile every entry of bucket `b`, in order, relative to the current
  /// `last_`, dropping cancelled ones.  Splitting the lowest non-empty
  /// bucket after raising `last_` to its minimum moves every entry to a
  /// strictly lower bucket; with `last_` unchanged it only compacts.
  void refile_bucket(unsigned b);
  /// Drop every cancelled slot (amortized memory bound when a workload
  /// cancels far more than it dispatches).
  void compact();

  // The per-event primitives below are defined in the header so every
  // schedule/dispatch site inlines them — measured ~10% of the hot-path
  // cost otherwise goes to call overhead and lost constant propagation.

  /// Append `slot` (key `t`) to the bucket `t` falls in relative to
  /// `last_`: the bit width of the highest bit where they differ.
  void file(std::uint32_t slot, Time t) {
    const auto b = static_cast<unsigned>(
        std::bit_width(static_cast<std::uint64_t>(t ^ last_)));
    Bucket& bk = buckets_[b];
    slot_next_[slot] = kNil;
    if (bk.head == kNil) {
      bk.head = slot;
      bk.min = t;
      occupied_ |= std::uint64_t{1} << b;
    } else {
      slot_next_[bk.tail] = slot;
      if (t < bk.min) bk.min = t;
    }
    bk.tail = slot;
  }

  /// Allocate a slot, file it under key `t` and assign the next sequence
  /// number.  The caller fills the slot's cb.
  EventId schedule_slot(Time t, const char* site) {
    PARTIB_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    PARTIB_ASSERT_MSG(t >= last_, "event key below the radix base");
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (!free_list_.empty()) {
      slot = free_list_.back();
      free_list_.pop_back();
      slot_ref(slot).site = site;
    } else {
      if (slot_count_ == slabs_.size() * kSlabSize) grow_slots();
      slot = slot_count_++;
      ::new (static_cast<void*>(&slot_ref(slot))) Slot{nullptr, site};
      // Fresh slots are sequential: pull the next line of the slab in
      // ahead of the schedule burst that is likely consuming them.
      if ((slot & (kSlabSize - 1)) + 4 < kSlabSize) {
        __builtin_prefetch(&slot_ref(slot + 4), 1);
      }
    }
    slot_seq_[slot] = seq;
    slot_time_[slot] = t;
    file(slot, t);
    ++live_;
    return EventId{t, seq, slot};
  }

  /// Bring a live event with key `last_` to the head of bucket 0, or
  /// return false when none is pending at or before `deadline`.  Dead
  /// heads are freed as they surface; when bucket 0 runs dry the lowest
  /// non-empty bucket is split at its minimum — but only if that minimum
  /// is within the deadline, since the split raises `last_` to it and
  /// the caller may schedule below it once run_until returns.
  bool settle(Time deadline) {
    Bucket& b0 = buckets_[0];
    for (;;) {
      while (b0.head != kNil) {
        const std::uint32_t s = b0.head;
        if (slot_seq_[s] != 0) return true;
        b0.head = slot_next_[s];
        free_list_.push_back(s);
        --dead_;
      }
      occupied_ &= ~std::uint64_t{1};
      if (occupied_ == 0) {
        // Drained.  A split at a cancelled minimum can leave `last_`
        // above `now_`; with nothing pending, rebase so a schedule_at in
        // [now_, last_) still files correctly.
        last_ = now_;
        return false;
      }
      const auto b = static_cast<unsigned>(std::countr_zero(occupied_));
      if (buckets_[b].min > deadline) return false;
      last_ = buckets_[b].min;
      refile_bucket(b);
    }
  }

  void dispatch_front() {
    // Caller guarantees a live head in bucket 0 (settle()).
    Bucket& b0 = buckets_[0];
    const std::uint32_t slot = b0.head;
    Slot& s = slot_ref(slot);
    const std::uint32_t next = slot_next_[slot];
    b0.head = next;
    PARTIB_ASSERT_MSG(slot_time_[slot] == last_,
                      "dispatched key differs from the radix base");
    const Time t = last_;
    now_ = t;
    diag_set_time(now_);
    // Retire the event (generation zeroed, unlinked from its bucket)
    // before invoking, then run the callback *in place*: the slot joins
    // the free list only after the call returns, so a callback that
    // schedules new events — even at this same timestamp — can never
    // clobber the closure it is running from.  Skipping the move-out
    // saves a 48-byte relocation per dispatch.
    const std::uint64_t seq = slot_seq_[slot];
    const char* site = s.site;
    slot_seq_[slot] = 0;
    --live_;
    ++processed_;
    // Pull the bucket's next slot toward the cache while the callback
    // runs: chained same-time events land in slab order only under
    // FIFO-reuse luck, so this hides most of the random-access latency.
    if (next != kNil) __builtin_prefetch(&slot_ref(next));
    if (observer_) observer_(t, seq, site);
    s.cb();
    s.cb = nullptr;
    s.site = nullptr;
    free_list_.push_back(slot);
  }

  /// Slow path of schedule_slot: append a slab (and extend the parallel
  /// seq/next/time arrays to match).
  void grow_slots();
};

}  // namespace partib::sim

// Reference DES engine: the original std::map-based implementation the
// production engine (src/sim/engine.hpp) replaced.
//
// The production engine's radix-heap queue promises *byte-identical*
// dispatch behaviour to this one — same (time, seq) dispatch order, same
// sequence-number assignment, same observer stream — while being several
// times faster.  This copy is kept verbatim (modulo naming) as the
// differential-testing oracle: tests/sim/engine_differential_test.cpp
// replays randomized schedule/cancel/run interleavings against both and
// asserts the dispatch streams and fingerprints match exactly.
//
// Do not "improve" this file; its value is that it stays the simple,
// obviously-correct specification of engine semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/diag.hpp"
#include "common/time.hpp"

namespace partib::test {

class ReferenceEngine {
 public:
  using Callback = std::function<void()>;
  using DispatchObserver =
      std::function<void(Time, std::uint64_t, const char*)>;

  struct EventId {
    Time time = 0;
    std::uint64_t seq = 0;
    bool valid() const { return seq != 0; }
  };

  ReferenceEngine() = default;
  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  Time now() const { return now_; }

  EventId schedule_at(Time t, Callback cb, const char* site = nullptr) {
    PARTIB_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    PARTIB_ASSERT(cb != nullptr);
    const Key key{t, next_seq_++};
    queue_.emplace(key, Event{std::move(cb), site});
    return EventId{key.first, key.second};
  }

  EventId schedule_after(Duration d, Callback cb,
                         const char* site = nullptr) {
    PARTIB_ASSERT_MSG(d >= 0, "negative delay");
    return schedule_at(now_ + d, std::move(cb), site);
  }

  bool cancel(EventId id) {
    if (!id.valid()) return false;
    return queue_.erase(Key{id.time, id.seq}) > 0;
  }

  bool step() {
    if (queue_.empty()) return false;
    dispatch_front();
    return true;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      dispatch_front();
      ++n;
    }
    return n;
  }

  std::size_t run_until(Time deadline) {
    PARTIB_ASSERT_MSG(deadline >= now_, "deadline in the past");
    std::size_t n = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      dispatch_front();
      ++n;
    }
    now_ = deadline;
    return n;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t processed_count() const { return processed_; }

  void set_dispatch_observer(DispatchObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;

  struct Event {
    Callback cb;
    const char* site;
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  // Ordered map doubles as priority queue and cancellation index.
  std::map<Key, Event> queue_;
  DispatchObserver observer_;

  void dispatch_front() {
    auto it = queue_.begin();
    now_ = it->first.first;
    diag_set_time(now_);
    Event ev = std::move(it->second);
    const Key key = it->first;
    queue_.erase(it);
    ++processed_;
    if (observer_) observer_(key.first, key.second, ev.site);
    ev.cb();
  }
};

}  // namespace partib::test

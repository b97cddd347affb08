#include "fabric/fluid_network.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/diag.hpp"

namespace partib::fabric {

namespace {
// Half a byte: below this a flow is considered finished.
constexpr double kByteEps = 0.5;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Whether a node of capacity `c` carrying `k` unfrozen flows saturates in
// round one: whether `c` minus `k` sequential subtractions of `delta`
// ends at or below `eps`.  Requires 0 <= delta <= fl(c / k), which round
// one's delta satisfies for every active node.
//
// Each subtraction rounds with relative error at most u = 2^-53 of a
// value no larger than c(1 + 2u), so the sequential result lies within
// about (k + 3) u c of c - k * delta computed in closed form.  The bound
// below is twice that; when it settles the comparison with `eps` the
// closed form decides, otherwise the exact loop does.
bool saturates(double c, int k, double delta, double eps) {
  if (c <= eps) return true;  // subtracting delta >= 0 never grows c
  if (c >= 0x1p-900 && k <= (1 << 24)) {
    const double approx = c - static_cast<double>(k) * delta;
    const double bound = static_cast<double>(k + 4) * c * 0x1p-52;
    if (approx + bound <= eps) return true;
    if (approx - bound > eps) return false;
  }
  double rem = c;
  for (int j = 0; j < k; ++j) rem -= delta;
  return rem <= eps;
}
}  // namespace

// -- Side: per-node loads and the (capacity, load) node classes -------------

void FluidNetwork::Side::set_capacity(NodeId node, double cap) {
  std::uint32_t g = 0;
  while (g < groups.size() && groups[g].capacity != cap) ++g;
  if (g == groups.size()) groups.push_back(CapacityGroup{cap, {}});
  nodes[static_cast<std::size_t>(node)].group = g;
}

void FluidNetwork::Side::open(NodeId node) {
  Node& n = nodes[static_cast<std::size_t>(node)];
  n.fill_rem = groups[n.group].capacity;
  n.fill_load = n.load;
}

void FluidNetwork::Side::add(NodeId node) {
  Node& n = nodes[static_cast<std::size_t>(node)];
  CapacityGroup& g = groups[n.group];
  const int to = ++n.load;
  const auto t = static_cast<std::size_t>(to);
  if (t >= g.at_load.size()) g.at_load.resize(t + 1, 0);
  ++g.at_load[t];
  g.max_load = std::max(g.max_load, to);
  // The node left class `to - 1`; a vacated minimum moves up to `to`.
  if (to == 1) {
    g.min_load = 1;
  } else if (--g.at_load[t - 1] == 0 && g.min_load == to - 1) {
    g.min_load = to;
  }
}

void FluidNetwork::Side::remove(NodeId node) {
  Node& n = nodes[static_cast<std::size_t>(node)];
  CapacityGroup& g = groups[n.group];
  const int from = n.load--;
  const auto f = static_cast<std::size_t>(from);
  const bool vacated = --g.at_load[f] == 0;
  if (from > 1) {
    ++g.at_load[f - 1];
    g.min_load = std::min(g.min_load, from - 1);
    if (vacated && g.max_load == from) g.max_load = from - 1;
  } else if (vacated) {
    // No single-flow node is left: the minimum is the next class up.
    while (g.min_load <= g.max_load &&
           g.at_load[static_cast<std::size_t>(g.min_load)] == 0) {
      ++g.min_load;
    }
    if (g.min_load > g.max_load) g.min_load = g.max_load = 0;
  }
}

double FluidNetwork::Side::min_share() const {
  // fl(c / k) is non-increasing in k, so each capacity's smallest share
  // is at its largest load.
  double share = kInf;
  for (const CapacityGroup& g : groups) {
    if (g.max_load > 0) share = std::min(share, g.capacity / g.max_load);
  }
  return share;
}

bool FluidNetwork::Side::all_saturate(double delta, double eps) const {
  // The remainder after k subtractions of delta >= 0 is non-increasing in
  // k, so a capacity's least-loaded node is its last to saturate.
  for (const CapacityGroup& g : groups) {
    if (g.max_load > 0 && !saturates(g.capacity, g.min_load, delta, eps)) {
      return false;
    }
  }
  return true;
}

// -- FluidNetwork -----------------------------------------------------------

FluidNetwork::FluidNetwork(sim::Engine& engine, double link_bytes_per_ns)
    : engine_(engine), capacity_(link_bytes_per_ns) {
  PARTIB_ASSERT(capacity_ > 0.0);
  egress_.groups.push_back(CapacityGroup{capacity_, {}});
  ingress_.groups.push_back(CapacityGroup{capacity_, {}});
}

void FluidNetwork::set_node_count(int n) {
  PARTIB_ASSERT(n >= nodes_);
  nodes_ = n;
  egress_.nodes.resize(static_cast<std::size_t>(n));
  ingress_.nodes.resize(static_cast<std::size_t>(n));
}

void FluidNetwork::set_node_capacity(NodeId node, double egress_bytes_per_ns,
                                     double ingress_bytes_per_ns) {
  PARTIB_ASSERT(node >= 0 && node < nodes_);
  PARTIB_ASSERT(egress_bytes_per_ns > 0.0 && ingress_bytes_per_ns > 0.0);
  // The node classes file each active node under its capacity.
  bool active = egress_.nodes[static_cast<std::size_t>(node)].load > 0 ||
                ingress_.nodes[static_cast<std::size_t>(node)].load > 0;
  for (std::size_t i = 0; !classed_ && i < remaining_.size(); ++i) {
    active = active || (remaining_[i] != kDead &&
                        (src_[i] == node || dst_[i] == node));
  }
  PARTIB_ASSERT_MSG(!active, "set_node_capacity on a node with active flows");
  egress_.set_capacity(node, egress_bytes_per_ns);
  ingress_.set_capacity(node, ingress_bytes_per_ns);
}

void FluidNetwork::submit(NodeId src, NodeId dst, double bytes,
                          double rate_cap, Done done) {
  PARTIB_ASSERT(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
  PARTIB_ASSERT(bytes >= 0.0 && bytes < kDead && rate_cap > 0.0);
  if (bytes < kByteEps) {
    // Zero-length transfer: completes immediately (still asynchronously,
    // so callers can rely on callback ordering).
    engine_.schedule_after(0, [done = std::move(done), this] {
      ++completed_;
      done(engine_.now());
    });
    return;
  }
  if (src == dst) {
    // Loopback bypasses the switch; only the engine cap applies.
    const auto d = static_cast<Duration>(std::ceil(bytes / rate_cap));
    engine_.schedule_after(d, [done = std::move(done), this] {
      ++completed_;
      done(engine_.now());
    });
    return;
  }
  drain_progress();
  std::uint32_t slot = static_cast<std::uint32_t>(done_slab_.size());
  if (free_done_slots_.empty()) {
    done_slab_.push_back(std::move(done));
  } else {
    slot = free_done_slots_.back();
    free_done_slots_.pop_back();
    done_slab_[slot] = std::move(done);
  }
  if (remaining_.size() == remaining_.capacity()) {
    // Grow the per-field arrays together, from 16 flows up.
    const std::size_t n = std::max<std::size_t>(16, 2 * remaining_.size());
    src_.reserve(n);
    dst_.reserve(n);
    remaining_.reserve(n);
    cap_.reserve(n);
    rate_.reserve(n);
    done_slot_.reserve(n);
  }
  src_.push_back(src);
  dst_.push_back(dst);
  remaining_.push_back(bytes);
  cap_.push_back(rate_cap);
  rate_.push_back(0.0);
  done_slot_.push_back(slot);
  ++live_;
  if (classed_) {
    enter_classes(remaining_.size() - 1);
  } else if (live_ == 2) {
    // A second flow: it and the lone flow join the node classes.
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      if (remaining_[i] != kDead) enter_classes(i);
    }
    classed_ = true;
  }
  add_cap(rate_cap);
  min_remaining_ = std::min(min_remaining_, bytes);
  recompute_rates();
  schedule_next_completion();
}

template <bool kUniform>
FluidNetwork::Sweep FluidNetwork::sweep_impl(double elapsed) {
  // One pass: drain, and the minima and finish count the completion
  // scheduler needs.  Tombstones stay at +inf and drop out of every
  // reduction on their own.
  double* rem = remaining_.data();
  const double* rate = rate_.data();
  const double step = uniform_rate_ * elapsed;
  const std::size_t n = remaining_.size();
  double min_all = kInf;
  double min_open = kInf;
  std::size_t finished = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r =
        std::max(0.0, rem[i] - (kUniform ? step : rate[i] * elapsed));
    rem[i] = r;
    const bool done = r <= kByteEps;
    min_all = std::min(min_all, r);
    min_open = std::min(min_open, done ? kInf : r);
    finished += done ? 1 : 0;
  }
  return Sweep{min_all, min_open, finished};
}

FluidNetwork::Sweep FluidNetwork::sweep(double elapsed) {
  return uniform_ ? sweep_impl<true>(elapsed) : sweep_impl<false>(elapsed);
}

void FluidNetwork::drain_progress() {
  const Time now = engine_.now();
  const auto elapsed = static_cast<double>(now - last_update_);
  if (elapsed > 0.0) min_remaining_ = sweep(elapsed).min_all;
  last_update_ = now;
}

void FluidNetwork::add_cap(double cap) {
  if (live_ == 1) caps_stale_ = false;
  if (caps_stale_) return;
  if (live_ == 1 || cap < min_cap_) {
    min_cap_ = cap;
    at_min_cap_ = 1;
  } else if (cap == min_cap_) {
    ++at_min_cap_;
  }
  if (live_ == 1 || cap > max_cap_) {
    max_cap_ = cap;
    at_max_cap_ = 1;
  } else if (cap == max_cap_) {
    ++at_max_cap_;
  }
}

void FluidNetwork::remove_cap(double cap) {
  if (caps_stale_) return;
  if (cap == min_cap_ && --at_min_cap_ == 0) caps_stale_ = true;
  if (cap == max_cap_ && --at_max_cap_ == 0) caps_stale_ = true;
}

void FluidNetwork::rescan_caps() {
  min_cap_ = kInf;
  max_cap_ = -kInf;
  for (std::size_t i = 0; i < cap_.size(); ++i) {
    if (remaining_[i] == kDead) continue;
    const double c = cap_[i];
    if (c < min_cap_) {
      min_cap_ = c;
      at_min_cap_ = 0;
    }
    if (c == min_cap_) ++at_min_cap_;
    if (c > max_cap_) {
      max_cap_ = c;
      at_max_cap_ = 0;
    }
    if (c == max_cap_) ++at_max_cap_;
  }
  caps_stale_ = false;
}

void FluidNetwork::enter_classes(std::size_t i) {
  egress_.add(src_[i]);
  ingress_.add(dst_[i]);
}

void FluidNetwork::leave_classes(std::size_t i) {
  egress_.remove(src_[i]);
  ingress_.remove(dst_[i]);
}

void FluidNetwork::retire(std::size_t i) {
  if (classed_) leave_classes(i);
  remaining_[i] = kDead;
  rate_[i] = 0.0;
  --live_;
  ++dead_;
  remove_cap(cap_[i]);
}

void FluidNetwork::compact() {
  std::size_t kept = 0;
  if (live_ == 0) {
    src_.clear();
    dst_.clear();
    remaining_.clear();
    cap_.clear();
    rate_.clear();
    done_slot_.clear();
    dead_ = 0;
    return;
  }
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    if (remaining_[i] == kDead) continue;
    src_[kept] = src_[i];
    dst_[kept] = dst_[i];
    remaining_[kept] = remaining_[i];
    cap_[kept] = cap_[i];
    rate_[kept] = rate_[i];
    done_slot_[kept] = done_slot_[i];
    ++kept;
  }
  src_.resize(kept);
  dst_.resize(kept);
  remaining_.resize(kept);
  cap_.resize(kept);
  rate_.resize(kept);
  done_slot_.resize(kept);
  dead_ = 0;
}

void FluidNetwork::recompute_rates() {
  if (live_ == 0) return;
  uniform_ = true;
  if (!classed_) {
    // A lone flow (at index 0: compaction leaves no tombstone behind
    // fewer than eight live flows) is not in the node classes.  Its fill
    // is one round whose delta is min(egress, ingress, cap).
    PARTIB_ASSERT(live_ == 1 && dead_ == 0);
    uniform_rate_ = std::min(
        std::min(egress_.capacity(src_[0]), ingress_.capacity(dst_[0])),
        cap_[0]);
    return;
  }
  const double eps = capacity_ * 1e-12;
  if (caps_stale_) rescan_caps();
  // Round one of progressive filling over node classes: every flow starts
  // at rate 0, so its cap term is its cap, and min is exact in any order.
  const double delta =
      std::min({egress_.min_share(), ingress_.min_share(), min_cap_});
  PARTIB_ASSERT(delta >= 0.0 && delta < kInf);
  // fl(cap - eps) is monotone in cap, so the largest cap decides "every
  // flow capped"; a side whose active nodes all saturate freezes every
  // flow.  Either way the fill ends here with rate 0.0 + delta = delta.
  if (delta >= max_cap_ - eps || ingress_.all_saturate(delta, eps) ||
      egress_.all_saturate(delta, eps)) {
    uniform_rate_ = delta;
    return;
  }
  water_fill(delta, eps);
}

void FluidNetwork::water_fill(double delta, double eps) {
  // Progressive filling (water-filling): raise all unfrozen flow rates in
  // lockstep; freeze flows at their cap and flows crossing a saturated
  // link.  Each round freezes at least one flow, so this terminates.
  // Unfrozen flows share one water level (0.0 plus the same deltas in the
  // same order), written to a flow's rate when it freezes.  Round one's
  // delta comes from the node classes.  Node scratch is initialised only
  // for the nodes live flows touch.
  unfrozen_.clear();
  for (std::size_t i = 0; i < remaining_.size(); ++i) {
    if (remaining_[i] == kDead) continue;
    unfrozen_.push_back(static_cast<std::uint32_t>(i));
    egress_.open(src_[i]);
    ingress_.open(dst_[i]);
  }
  double level = 0.0;
  int rounds = 0;
  while (!unfrozen_.empty()) {
    if (rounds++ > 0) {
      delta = kInf;
      for (const std::uint32_t i : unfrozen_) {
        const Side::Node& e = egress_.nodes[static_cast<std::size_t>(src_[i])];
        const Side::Node& g =
            ingress_.nodes[static_cast<std::size_t>(dst_[i])];
        delta = std::min(delta, e.fill_rem / e.fill_load);
        delta = std::min(delta, g.fill_rem / g.fill_load);
        delta = std::min(delta, cap_[i] - level);
      }
      PARTIB_ASSERT(delta >= 0.0 && delta < kInf);
    }
    level += delta;
    for (const std::uint32_t i : unfrozen_) {
      egress_.nodes[static_cast<std::size_t>(src_[i])].fill_rem -= delta;
      ingress_.nodes[static_cast<std::size_t>(dst_[i])].fill_rem -= delta;
    }
    // Freeze cap-limited flows and flows on saturated links; frozen flows
    // leave the per-link load counts so later rounds divide by the
    // still-unfrozen population only.
    std::size_t kept = 0;
    for (const std::uint32_t i : unfrozen_) {
      Side::Node& e = egress_.nodes[static_cast<std::size_t>(src_[i])];
      Side::Node& g = ingress_.nodes[static_cast<std::size_t>(dst_[i])];
      if (level >= cap_[i] - eps || e.fill_rem <= eps || g.fill_rem <= eps) {
        rate_[i] = level;
        --e.fill_load;
        --g.fill_load;
      } else {
        unfrozen_[kept++] = i;
      }
    }
    PARTIB_ASSERT_MSG(kept < unfrozen_.size(),
                      "progressive filling failed to converge");
    unfrozen_.resize(kept);
  }
  // A fill that froze every flow in round one left them all at delta.
  uniform_ = rounds == 1;
  uniform_rate_ = level;
}

void FluidNetwork::schedule_next_completion() {
  if (next_event_.valid()) {
    engine_.cancel(next_event_);
    next_event_ = sim::Engine::EventId{};
  }
  if (live_ == 0) return;
  // Pathological: every capacity/cap interaction underflowed a flow's
  // share to zero.  A zero rate can never finish, so report a structured
  // diagnostic per such flow instead of dividing by zero (or tripping an
  // assert in a release-unchecked build); the flow stays parked until
  // some completion or submission recomputes rates.
  const auto zero_rate = [this] {
    Diagnostic d;
    d.rule = "fluid.zero_rate";
    d.object = "fluid_network";
    d.vtime = engine_.now();
    d.detail = "flow rate underflowed to zero (all-capped pathological "
               "case); flow parked until rates are recomputed";
    diag_emit(d);
  };
  double min_finish = kInf;
  if (uniform_) {
    // Rounded division is monotone: min(rem_i / r) == min(rem_i) / r.
    if (uniform_rate_ > 0.0) {
      min_finish = min_remaining_ / uniform_rate_;
    } else {
      for (std::size_t i = 0; i < live_; ++i) zero_rate();
    }
  } else {
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      if (rate_[i] <= 0.0) {
        if (remaining_[i] != kDead) zero_rate();
        continue;
      }
      min_finish = std::min(min_finish, remaining_[i] / rate_[i]);
    }
  }
  if (min_finish == kInf) return;
  const auto delay = static_cast<Duration>(std::ceil(min_finish));
  next_event_ = engine_.schedule_after(std::max<Duration>(delay, 1),
                                       [this] { on_completion_event(); });
}

void FluidNetwork::on_completion_event() {
  next_event_ = sim::Engine::EventId{};
  const Time now = engine_.now();
  // A zero elapsed time makes the drain an identity; the pass still
  // counts finished flows.
  const Sweep s = sweep(static_cast<double>(now - last_update_));
  last_update_ = now;
  min_remaining_ = s.min_open;
  // Collect finished flows first: Done callbacks may submit new flows.
  // Completion order is array order, i.e. submission order, matching the
  // original id-ordered map iteration.
  finished_scratch_.clear();
  for (std::size_t i = 0; finished_scratch_.size() < s.finished; ++i) {
    if (remaining_[i] > kByteEps) continue;
    const std::uint32_t slot = done_slot_[i];
    finished_scratch_.push_back(std::move(done_slab_[slot]));
    free_done_slots_.push_back(slot);
    retire(i);
  }
  if (dead_ > 0 && dead_ * 8 >= live_) compact();
  if (classed_ && live_ < 2) {
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      if (remaining_[i] != kDead) leave_classes(i);
    }
    classed_ = false;
  }
  recompute_rates();
  schedule_next_completion();
  for (Done& done : finished_scratch_) {
    ++completed_;
    done(now);
  }
  finished_scratch_.clear();
}

}  // namespace partib::fabric

// Max-min fair fluid-flow network model.
//
// Every node has full-duplex links into a non-blocking switch (Niagara's
// Dragonfly+ is modelled as non-blocking for the traffic scales in the
// paper's evaluation).  Active transfers are fluid flows; each flow is
// constrained by (a) its source's egress capacity, (b) its destination's
// ingress capacity, and (c) a per-flow rate cap (the per-QP engine share).
// Rates are allocated by progressive filling (max-min fairness) and
// re-computed whenever a flow starts or finishes.  This captures the two
// effects the paper's figures depend on without per-packet simulation:
// per-QP bandwidth limits (Fig 7) and fan-in congestion (Fig 14's sweep).
//
// Water-level layout.  Every result is bit-identical to the original
// std::map implementation (tests/support/reference_fluid_network.hpp);
// docs/PERF.md "Fluid network: water level" gives the exactness arguments.
//  - Flows live in flat per-field arrays (src, dst, remaining, cap, rate)
//    in submission order; completion callbacks sit in their own slab.  A
//    finished flow becomes a tombstone (remaining = +inf, rate = 0) that
//    every pass skips arithmetically; tombstones are compacted away once
//    they reach an eighth of the live flows.
//  - Each link side keeps, per node, its active flow count and, per
//    distinct capacity, how many nodes carry each count (the node
//    classes: one (capacity, load) pair each); the per-flow cap extremes
//    are kept too.  submit and completion update them in O(1).  A lone
//    flow stays out of the classes: its rate is min(egress, ingress, cap).
//  - Round one of progressive filling is decided over the classes: its
//    delta is min(capacity / max load, min cap).  When every flow is then
//    capped, or every node on one side saturates, the fill ends after one
//    round with every flow at one `uniform_rate_`, with no per-flow pass
//    (a fan-in into a saturated sink, a fan-out from a saturated source).
//    Otherwise the general multi-round fill runs over the live flows and
//    the nodes they touch; if it freezes every flow in round one, the
//    rates are uniform too.
//  - With one uniform rate, a flow event costs one pass over `remaining_`
//    (drain, finish count and minima fused), and the next completion is
//    min(remaining) / rate.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/time.hpp"
#include "sim/engine.hpp"

namespace partib::fabric {

using NodeId = int;

class FluidNetwork {
 public:
  /// Called when the flow's last byte leaves the wire.  Move-only with a
  /// 48-byte inline buffer (common/inline_fn.hpp); larger captures fall
  /// back to one heap allocation.
  using Done = common::InlineFn<void(Time wire_end)>;

  FluidNetwork(sim::Engine& engine, double link_bytes_per_ns);

  /// Declare nodes [0, n).  Flows may only reference declared nodes.
  void set_node_count(int n);

  /// Override one node's link capacities (bytes/ns); defaults to the
  /// homogeneous link rate.  Models mixed-generation clusters or a
  /// tapered uplink.  The node must carry no active flow (asserted): set
  /// capacities before traffic reaches it.
  void set_node_capacity(NodeId node, double egress_bytes_per_ns,
                         double ingress_bytes_per_ns);

  /// Start a flow of `bytes` from src to dst, individually capped at
  /// `rate_cap` bytes/ns.  Loopback (src == dst) completes after
  /// bytes / rate_cap without touching link capacity.
  void submit(NodeId src, NodeId dst, double bytes, double rate_cap,
              Done done);

  std::size_t active_flows() const { return live_; }
  std::uint64_t completed_flows() const { return completed_; }

  /// Read-only view of one in-flight flow, for tests and diagnostics.
  struct FlowView {
    NodeId src;
    NodeId dst;
    double remaining;
    double cap;
    double rate;
  };

  /// Visit every active flow in submission order (tests/tools only; the
  /// library itself never iterates through this).
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (std::size_t i = 0; i < remaining_.size(); ++i) {
      if (remaining_[i] == kDead) continue;
      fn(FlowView{src_[i], dst_[i], remaining_[i], cap_[i],
                  uniform_ ? uniform_rate_ : rate_[i]});
    }
  }

 private:
  static constexpr double kDead = std::numeric_limits<double>::infinity();

  /// The nodes of one link side that share one capacity: `at_load[k]`
  /// counts those carrying exactly k >= 1 active flows (the node classes),
  /// and [min_load, max_load] spans the non-empty classes (0 when none).
  struct CapacityGroup {
    double capacity;
    std::vector<int> at_load;
    int min_load = 0;
    int max_load = 0;
  };

  /// One direction (egress or ingress) of every node's link.
  struct Side {
    struct Node {
      std::uint32_t group = 0;  ///< index into `groups`
      int load = 0;             ///< active flows
      // General-fill state, valid only for nodes live flows touch:
      // remaining capacity and unfrozen flows.
      double fill_rem = 0.0;
      int fill_load = 0;
    };
    std::vector<Node> nodes;
    std::vector<CapacityGroup> groups;

    double capacity(NodeId node) const {
      return groups[nodes[static_cast<std::size_t>(node)].group].capacity;
    }
    void set_capacity(NodeId node, double cap);
    /// Reset the node's fill state to its capacity and active flows.
    void open(NodeId node);
    void add(NodeId node);
    void remove(NodeId node);
    /// Round one's smallest per-flow share on this side.
    double min_share() const;
    /// Whether every node carrying flows saturates in round one.
    bool all_saturate(double delta, double eps) const;
  };

  /// Result of one pass over `remaining_`.
  struct Sweep {
    double min_all;   ///< min remaining over live flows
    double min_open;  ///< same, over flows not finished
    std::size_t finished;
  };

  sim::Engine& engine_;
  double capacity_;
  int nodes_ = 0;
  Side egress_;
  Side ingress_;

  // Hot flow fields, in submission order; tombstones have remaining
  // kDead and rate 0.
  std::vector<NodeId> src_;
  std::vector<NodeId> dst_;
  std::vector<double> remaining_;
  std::vector<double> cap_;
  std::vector<double> rate_;  ///< stale while `uniform_`
  std::vector<std::uint32_t> done_slot_;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  /// The node classes hold every live flow; true exactly while two or
  /// more flows are live (a lone flow needs no classes).
  bool classed_ = false;

  // Completion callbacks: stable slab + free-list.
  std::vector<Done> done_slab_;
  std::vector<std::uint32_t> free_done_slots_;

  // Every live flow runs at `uniform_rate_` when `uniform_` is set.
  bool uniform_ = false;
  double uniform_rate_ = 0.0;
  double min_remaining_ = kDead;  ///< over live flows

  // Per-flow cap extremes with multiplicities; rescanned when stale.
  double min_cap_ = 0.0;
  double max_cap_ = 0.0;
  std::size_t at_min_cap_ = 0;
  std::size_t at_max_cap_ = 0;
  bool caps_stale_ = false;

  std::uint64_t completed_ = 0;
  Time last_update_ = 0;
  sim::Engine::EventId next_event_{};

  // Scratch reused across events.
  std::vector<std::uint32_t> unfrozen_;
  std::vector<Done> finished_scratch_;

  template <bool kUniform>
  Sweep sweep_impl(double elapsed);
  Sweep sweep(double elapsed);
  void drain_progress();
  void add_cap(double cap);
  void remove_cap(double cap);
  void rescan_caps();
  void enter_classes(std::size_t i);
  void leave_classes(std::size_t i);
  void retire(std::size_t i);
  void compact();
  void recompute_rates();
  void water_fill(double delta, double eps);
  void schedule_next_completion();
  void on_completion_event();
};

}  // namespace partib::fabric

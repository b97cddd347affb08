// Reference max-min fluid network: the original std::map-based
// implementation that src/fabric/fluid_network.cpp replaced with an
// allocation-free layout.
//
// Like tests/support/reference_engine.hpp, this is a verbatim copy (modulo
// naming and header-only inlining) kept as a differential oracle:
// tests/fabric/fluid_conservation_test.cpp submits identical randomized
// workloads to both implementations and requires byte-identical completion
// times and flow views (the read-only for_each_flow is the one addition).
// Do not optimise this file — its job is to stay the obviously
// correct specification of the fluid model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/engine.hpp"

namespace partib::test {

class ReferenceFluidNetwork {
 public:
  using NodeId = int;
  /// Called when the flow's last byte leaves the wire.
  using Done = std::function<void(Time wire_end)>;

  ReferenceFluidNetwork(sim::Engine& engine, double link_bytes_per_ns)
      : engine_(engine), capacity_(link_bytes_per_ns) {
    PARTIB_ASSERT(capacity_ > 0.0);
  }

  void set_node_count(int n) {
    PARTIB_ASSERT(n >= nodes_);
    nodes_ = n;
  }

  void set_node_capacity(NodeId node, double egress_bytes_per_ns,
                         double ingress_bytes_per_ns) {
    PARTIB_ASSERT(node >= 0 && node < nodes_);
    PARTIB_ASSERT(egress_bytes_per_ns > 0.0 && ingress_bytes_per_ns > 0.0);
    node_caps_[node] = {egress_bytes_per_ns, ingress_bytes_per_ns};
  }

  void submit(NodeId src, NodeId dst, double bytes, double rate_cap,
              Done done) {
    PARTIB_ASSERT(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
    PARTIB_ASSERT(bytes >= 0.0 && rate_cap > 0.0);
    if (bytes < kByteEps) {
      engine_.schedule_after(0, [done = std::move(done), this] {
        ++completed_;
        done(engine_.now());
      });
      return;
    }
    if (src == dst) {
      const auto d = static_cast<Duration>(std::ceil(bytes / rate_cap));
      engine_.schedule_after(d, [done = std::move(done), this] {
        ++completed_;
        done(engine_.now());
      });
      return;
    }
    drain_progress();
    flows_.emplace(next_id_++,
                   Flow{src, dst, bytes, rate_cap, 0.0, std::move(done)});
    recompute_rates();
    schedule_next_completion();
  }

  std::size_t active_flows() const { return flows_.size(); }
  std::uint64_t completed_flows() const { return completed_; }

  /// Read-only view of one in-flight flow, for the differential's
  /// per-rate-change comparison (same fields as FluidNetwork::FlowView).
  struct FlowView {
    NodeId src;
    NodeId dst;
    double remaining;
    double cap;
    double rate;
  };

  /// Visit every active flow in submission (id) order.
  template <typename Fn>
  void for_each_flow(Fn&& fn) const {
    for (const auto& [id, f] : flows_) {
      fn(FlowView{f.src, f.dst, f.remaining, f.cap, f.rate});
    }
  }

 private:
  // Half a byte: below this a flow is considered finished.
  static constexpr double kByteEps = 0.5;

  struct Flow {
    NodeId src;
    NodeId dst;
    double remaining;
    double cap;
    double rate = 0.0;
    Done done;
  };

  sim::Engine& engine_;
  double capacity_;
  int nodes_ = 0;
  std::map<NodeId, std::pair<double, double>> node_caps_;
  std::map<std::uint64_t, Flow> flows_;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  Time last_update_ = 0;
  sim::Engine::EventId next_event_{};

  void drain_progress() {
    const Time now = engine_.now();
    const auto elapsed = static_cast<double>(now - last_update_);
    if (elapsed > 0.0) {
      for (auto& [id, f] : flows_) {
        f.remaining = std::max(0.0, f.remaining - f.rate * elapsed);
      }
    }
    last_update_ = now;
  }

  void recompute_rates() {
    // Progressive filling (water-filling): raise all unfrozen flow rates
    // in lockstep; freeze flows at their cap and flows crossing a
    // saturated link.  Each round freezes at least one flow.
    std::vector<double> egress(static_cast<std::size_t>(nodes_), capacity_);
    std::vector<double> ingress(static_cast<std::size_t>(nodes_), capacity_);
    for (const auto& [node, caps] : node_caps_) {
      egress[static_cast<std::size_t>(node)] = caps.first;
      ingress[static_cast<std::size_t>(node)] = caps.second;
    }
    std::vector<Flow*> unfrozen;
    unfrozen.reserve(flows_.size());
    for (auto& [id, f] : flows_) {
      f.rate = 0.0;
      unfrozen.push_back(&f);
    }
    const double eps = capacity_ * 1e-12;

    while (!unfrozen.empty()) {
      std::vector<int> egress_load(static_cast<std::size_t>(nodes_), 0);
      std::vector<int> ingress_load(static_cast<std::size_t>(nodes_), 0);
      for (const Flow* f : unfrozen) {
        ++egress_load[static_cast<std::size_t>(f->src)];
        ++ingress_load[static_cast<std::size_t>(f->dst)];
      }
      double delta = std::numeric_limits<double>::infinity();
      for (const Flow* f : unfrozen) {
        const auto s = static_cast<std::size_t>(f->src);
        const auto d = static_cast<std::size_t>(f->dst);
        delta = std::min(delta, egress[s] / egress_load[s]);
        delta = std::min(delta, ingress[d] / ingress_load[d]);
        delta = std::min(delta, f->cap - f->rate);
      }
      PARTIB_ASSERT(delta >= 0.0 &&
                    delta < std::numeric_limits<double>::infinity());
      for (Flow* f : unfrozen) {
        f->rate += delta;
        egress[static_cast<std::size_t>(f->src)] -= delta;
        ingress[static_cast<std::size_t>(f->dst)] -= delta;
      }
      std::vector<Flow*> still;
      still.reserve(unfrozen.size());
      bool froze_any = false;
      for (Flow* f : unfrozen) {
        const bool capped = f->rate >= f->cap - eps;
        const bool egress_full =
            egress[static_cast<std::size_t>(f->src)] <= eps;
        const bool ingress_full =
            ingress[static_cast<std::size_t>(f->dst)] <= eps;
        if (capped || egress_full || ingress_full) {
          froze_any = true;
        } else {
          still.push_back(f);
        }
      }
      PARTIB_ASSERT_MSG(froze_any, "progressive filling failed to converge");
      unfrozen = std::move(still);
    }
  }

  void schedule_next_completion() {
    if (next_event_.valid()) {
      engine_.cancel(next_event_);
      next_event_ = sim::Engine::EventId{};
    }
    if (flows_.empty()) return;
    double min_finish = std::numeric_limits<double>::infinity();
    for (const auto& [id, f] : flows_) {
      PARTIB_ASSERT(f.rate > 0.0);
      min_finish = std::min(min_finish, f.remaining / f.rate);
    }
    const auto delay = static_cast<Duration>(std::ceil(min_finish));
    next_event_ = engine_.schedule_after(std::max<Duration>(delay, 1),
                                         [this] { on_completion_event(); });
  }

  void on_completion_event() {
    next_event_ = sim::Engine::EventId{};
    drain_progress();
    // Collect finished flows first: Done callbacks may submit new flows.
    std::vector<Done> finished;
    std::vector<Time> ends;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.remaining <= kByteEps) {
        finished.push_back(std::move(it->second.done));
        ends.push_back(engine_.now());
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    if (!flows_.empty()) {
      recompute_rates();
    }
    schedule_next_completion();
    for (std::size_t i = 0; i < finished.size(); ++i) {
      ++completed_;
      finished[i](ends[i]);
    }
  }
};

}  // namespace partib::test

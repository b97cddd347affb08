// Fluid-network conservation and differential checks.
//
// The water-level FluidNetwork must be observationally identical to the
// original std::map implementation
// (tests/support/reference_fluid_network.hpp): identical completion times
// and identical flow views (every field, bit for bit) at every rate-change
// point for identical workloads.  The scenarios drive each of its paths:
// the uniform-rate fan-in and fan-out fills, the multi-round fallback,
// heterogeneous capacities, and the closed-form saturation test at the
// edge of its error bound.  Independently, the model must conserve bytes
// — integrating each flow's allocated rate over virtual time accounts for
// exactly the bytes submitted (up to the 1 ns completion-event
// quantization) — and every rate allocation must respect the per-flow cap
// and the per-node egress/ingress capacities at all times, probed through
// FluidNetwork::for_each_flow at every rate-change point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "fabric/fluid_network.hpp"
#include "sim/engine.hpp"
#include "support/reference_fluid_network.hpp"

namespace partib::fabric {
namespace {

constexpr double kCap = 10.0;  // bytes per ns
constexpr int kNodes = 8;

struct Submission {
  Time at;
  NodeId src;
  NodeId dst;
  double bytes;
  double cap;
};

struct NodeCapacity {
  NodeId node;
  double egress;
  double ingress;
};

/// One differential workload: the network's shape and its flows.
struct Scenario {
  int nodes = kNodes;
  std::vector<NodeCapacity> capacities;
  std::vector<Submission> flows;
};

/// The capacities the small randomized workloads run against.
std::vector<NodeCapacity> small_capacities() {
  return {{1, 4.0, 12.0},   // one slow-egress, fat-ingress node
          {5, 25.0, 3.0}};  // one fat-egress, slow-ingress node
}

std::vector<Submission> make_workload(std::uint64_t seed, std::size_t count,
                                      bool allow_degenerate) {
  std::mt19937_64 rng(seed);
  std::vector<Submission> w;
  w.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Submission s;
    s.at = static_cast<Time>(rng() % 2000);
    s.src = static_cast<NodeId>(rng() % kNodes);
    s.dst = static_cast<NodeId>(rng() % kNodes);
    if (!allow_degenerate && s.dst == s.src) {
      s.dst = (s.src + 1) % kNodes;
    }
    s.bytes = allow_degenerate && rng() % 8 == 0
                  ? 0.0
                  : static_cast<double>(1 + rng() % 50000);
    s.cap = 0.5 + static_cast<double>(rng() % 400) / 10.0;
    w.push_back(s);
  }
  return w;
}

/// What one implementation did with a scenario.
struct Observed {
  std::vector<Time> ends;  ///< per flow
  /// One entry per rate-change point (after every submit, inside every
  /// completion callback): the time and a digest (FNV-style, one 64-bit
  /// word per step) of the bit patterns of every active flow's view, in
  /// submission order.
  std::vector<std::pair<Time, std::uint64_t>> views;
  /// Every flow's rate right after the last submission at time 0.
  std::vector<double> rates_at_start;
};

template <typename NetT>
Observed observe(const Scenario& sc) {
  sim::Engine engine;
  NetT net(engine, kCap);
  net.set_node_count(sc.nodes);
  for (const NodeCapacity& c : sc.capacities) {
    net.set_node_capacity(c.node, c.egress, c.ingress);
  }
  Observed obs;
  obs.ends.assign(sc.flows.size(), -1);
  const auto snapshot = [&engine, &net, &obs] {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      h = (h ^ v) * 0x100000001b3ull;
      h ^= h >> 29;
    };
    net.for_each_flow([&mix](const auto& v) {
      mix(static_cast<std::uint64_t>(v.src));
      mix(static_cast<std::uint64_t>(v.dst));
      mix(std::bit_cast<std::uint64_t>(v.remaining));
      mix(std::bit_cast<std::uint64_t>(v.cap));
      mix(std::bit_cast<std::uint64_t>(v.rate));
    });
    obs.views.emplace_back(engine.now(), h);
  };
  std::size_t at_zero = 0;
  for (const Submission& s : sc.flows) at_zero += s.at == 0 ? 1 : 0;
  for (std::size_t i = 0; i < sc.flows.size(); ++i) {
    const Submission& s = sc.flows[i];
    engine.schedule_at(s.at, [&, i] {
      net.submit(s.src, s.dst, s.bytes, s.cap, [&obs, &snapshot, i](Time end) {
        obs.ends[i] = end;
        snapshot();
      });
      snapshot();
      if (s.at == 0 && --at_zero == 0) {
        net.for_each_flow([&obs](const auto& v) {
          obs.rates_at_start.push_back(v.rate);
        });
      }
    });
  }
  engine.run();
  return obs;
}

/// Runs `sc` through both implementations and requires identical
/// completion times and flow views; returns the production run.
Observed expect_matches_reference(const Scenario& sc, const char* what) {
  Observed prod = observe<FluidNetwork>(sc);
  const Observed ref = observe<test::ReferenceFluidNetwork>(sc);
  EXPECT_EQ(prod.ends.size(), ref.ends.size()) << what;
  for (std::size_t i = 0; i < prod.ends.size() && i < ref.ends.size(); ++i) {
    if (prod.ends[i] != ref.ends[i]) {
      ADD_FAILURE() << what << ": flow " << i << " (" << sc.flows[i].src
                    << "->" << sc.flows[i].dst << ", " << sc.flows[i].bytes
                    << " B) ends at " << prod.ends[i] << ", reference "
                    << ref.ends[i];
      break;
    }
  }
  EXPECT_EQ(prod.views.size(), ref.views.size()) << what;
  for (std::size_t i = 0; i < prod.views.size() && i < ref.views.size();
       ++i) {
    if (prod.views[i] != ref.views[i]) {
      ADD_FAILURE() << what << ": flow views differ at rate-change point "
                    << i << " (t=" << prod.views[i].first << ", reference t="
                    << ref.views[i].first << ")";
      break;
    }
  }
  EXPECT_EQ(prod.rates_at_start, ref.rates_at_start) << what;
  return prod;
}

TEST(FluidConservation, CompletionTimesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario sc;
    sc.capacities = small_capacities();
    sc.flows = make_workload(0xf10d + seed, 40, /*allow_degenerate=*/true);
    expect_matches_reference(sc, "small random workload");
  }
}

// The connection-scale incast shape: 4096 senders into one rank, arriving
// staggered.  The first half is uncapped, so while only they are active
// every flow crosses the saturated sink (the uniform-rate path); the
// second half's caps straddle the 4096-way fair share, so once they
// arrive some flows freeze at their cap in round one and the sink's
// remainder is re-shared (the multi-round fallback) until they drain.
TEST(FluidConservation, StaggeredFanIn4096MatchesReference) {
  constexpr int kSenders = 4096;
  const double share = kCap / kSenders;
  const double factors[] = {0.5, 0.9, 1.1, 2.0};
  std::mt19937_64 rng(0xfa41);
  Scenario sc;
  sc.nodes = kSenders + 1;
  for (int i = 0; i < kSenders; ++i) {
    Submission s;
    s.at = static_cast<Time>(i) * 20;
    s.src = i + 1;
    s.dst = 0;
    s.bytes = static_cast<double>(200 + rng() % 800);
    s.cap = i < kSenders / 2 ? 1000.0 : share * factors[i % 4];
    sc.flows.push_back(s);
  }
  expect_matches_reference(sc, "staggered 4096-flow fan-in");
}

// One sender to 64 receivers: the sender's egress saturates, so the
// uniform path is decided by the egress side; a few receivers have slow
// ingress links and a few flows low caps, which push the fill into the
// multi-round fallback while they are active.
TEST(FluidConservation, FanOutEgressSaturationMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(0xfa0u + seed);
    Scenario sc;
    sc.nodes = 65;
    sc.capacities = {{7, 10.0, 0.05}, {33, 10.0, 0.1}};
    for (int i = 0; i < 64; ++i) {
      Submission s;
      s.at = static_cast<Time>(rng() % 400);
      s.src = 0;
      s.dst = 1 + i;
      s.bytes = static_cast<double>(100 + rng() % 4000);
      s.cap = rng() % 8 == 0 ? 0.02 + static_cast<double>(rng() % 10) / 100.0
                             : 100.0;
      sc.flows.push_back(s);
    }
    expect_matches_reference(sc, "fan-out");
  }
}

// Mixed all-to-all traffic over 64 nodes whose egress and ingress
// capacities are all set: most from a shared palette (nodes share
// capacity classes), some unique.  Zero-byte and loopback flows mix in.
TEST(FluidConservation, MixedAllToAllFuzzMatchesReference) {
  constexpr int kFuzzNodes = 64;
  const double palette[] = {4.0, 8.0, 10.0, 12.5, 25.0};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(0xa11a + seed);
    Scenario sc;
    sc.nodes = kFuzzNodes;
    const auto pick = [&] {
      return rng() % 4 == 0 ? 1.0 + static_cast<double>(rng() % 3000) / 100.0
                            : palette[rng() % 5];
    };
    for (int n = 0; n < kFuzzNodes; ++n) {
      const double egress = pick();
      sc.capacities.push_back({n, egress, pick()});
    }
    for (int i = 0; i < 600; ++i) {
      Submission s;
      s.at = static_cast<Time>(rng() % 20000);
      s.src = static_cast<NodeId>(rng() % kFuzzNodes);
      s.dst = static_cast<NodeId>(rng() % kFuzzNodes);
      s.bytes = rng() % 32 == 0 ? 0.0 : static_cast<double>(1 + rng() % 20000);
      s.cap = 0.5 + static_cast<double>(rng() % 300) / 10.0;
      sc.flows.push_back(s);
    }
    expect_matches_reference(sc, "mixed all-to-all");
  }
}

// The uniform path decides "this node saturates in round one" in closed
// form only when the rounding-error bound settles it, and runs the exact
// sequential subtraction otherwise.  Node 0's ingress capacity is
// delta = 10 / 3300 and it takes one flow, which fixes round one's delta
// and saturates node 0.  Node 1 takes 1000 flows and has an ingress
// capacity of 1000 * delta + eps + j * 1e-14.  For |j| <= 7 the bound
// (about 7e-13 here) straddles eps, so the exact loop decides; its
// accumulated rounding (about +6e-14) leaves node 1 open from j = -5 on,
// where c - 1000 * delta alone would call it saturated up to j = -1.  At
// j = +-200 the closed form decides.  Either way the rates must match the
// reference, with node 1 saturating (its flows at delta) up to j = -6 and
// open (its flows re-filled above delta in a second round) from j = -5.
TEST(FluidConservation, SaturationBoundaryMatchesReference) {
  constexpr int kLoad = 1000;
  const double delta = kCap / 3300;
  const double eps = kCap * 1e-12;
  for (const int j : {-200, -7, -6, -5, -3, -1, 0, 200}) {
    Scenario sc;
    sc.nodes = 2 + 1 + kLoad;
    sc.capacities = {{0, kCap, delta},
                     {1, kCap, kLoad * delta + eps + j * 1e-14}};
    sc.flows.push_back(Submission{0, 2, 0, 1000.0, 100.0});
    for (int i = 0; i < kLoad; ++i) {
      sc.flows.push_back(Submission{0, 3 + i, 1, 1000.0, 100.0});
    }
    const Observed prod = expect_matches_reference(sc, "saturation boundary");
    ASSERT_EQ(prod.rates_at_start.size(), sc.flows.size());
    EXPECT_EQ(prod.rates_at_start.front(), delta);
    const bool node1_saturated = prod.rates_at_start.back() == delta;
    EXPECT_EQ(node1_saturated, j <= -6) << "j = " << j;
  }
}

// Tracks one flow's delivered bytes by integrating its allocated rate over
// the piecewise-constant segments between rate-change points.  Flows are
// identified by their unique (src, dst) pair.
struct Tracked {
  Submission sub;
  double delivered = 0.0;
  double last_rate = 0.0;
  Time last_t = 0;
  Time end = -1;
  bool finished = false;
};

class ConservationProbe {
 public:
  ConservationProbe(sim::Engine& engine, FluidNetwork& net,
                    std::vector<Tracked>& flows)
      : engine_(engine), net_(net), flows_(flows) {}

  // Call at every rate-change point (right after a submit returns, and
  // inside every completion callback): closes the segment that just ended
  // for every tracked flow, checks capacity invariants, then records the
  // new rates.
  void observe() {
    const Time now = engine_.now();
    for (Tracked& f : flows_) {
      if (f.finished || f.last_t > now) continue;
      f.delivered += f.last_rate * static_cast<double>(now - f.last_t);
      f.last_t = now;
      f.last_rate = 0.0;  // refreshed below if still active
    }
    std::vector<double> egress_sum(kNodes, 0.0);
    std::vector<double> ingress_sum(kNodes, 0.0);
    net_.for_each_flow([&](const FluidNetwork::FlowView& v) {
      EXPECT_GE(v.rate, 0.0);
      EXPECT_LE(v.rate, v.cap + kEps);
      EXPECT_GE(v.remaining, 0.0);
      egress_sum[static_cast<std::size_t>(v.src)] += v.rate;
      ingress_sum[static_cast<std::size_t>(v.dst)] += v.rate;
      for (Tracked& f : flows_) {
        if (!f.finished && f.sub.src == v.src && f.sub.dst == v.dst) {
          f.last_rate = v.rate;
          // The network's own progress accounting must agree with the
          // integral (loose tolerance absorbs float reassociation across
          // intermediate drains).
          EXPECT_NEAR(f.sub.bytes - f.delivered, v.remaining, 1.0)
              << "flow " << v.src << "->" << v.dst;
        }
      }
    });
    for (int n = 0; n < kNodes; ++n) {
      EXPECT_LE(egress_sum[static_cast<std::size_t>(n)],
                egress_cap(n) + kEps)
          << "egress overcommitted at node " << n;
      EXPECT_LE(ingress_sum[static_cast<std::size_t>(n)],
                ingress_cap(n) + kEps)
          << "ingress overcommitted at node " << n;
    }
  }

  // Mirrors the set_node_capacity overrides the tests install.
  static double egress_cap(int node) {
    if (node == 1) return 4.0;
    if (node == 5) return 25.0;
    return kCap;
  }
  static double ingress_cap(int node) {
    if (node == 1) return 12.0;
    if (node == 5) return 3.0;
    return kCap;
  }

 private:
  static constexpr double kEps = 1e-6;

  sim::Engine& engine_;
  FluidNetwork& net_;
  std::vector<Tracked>& flows_;
};

TEST(FluidConservation, EveryFlowDeliversItsBytes) {
  std::mt19937_64 rng(0xb17e5);
  // Distinct (src, dst) pairs so flows are identifiable through FlowView.
  std::vector<Tracked> flows;
  for (int src = 0; src < kNodes; ++src) {
    for (int dst = 0; dst < kNodes; ++dst) {
      if (src == dst) continue;
      if (rng() % 2 == 0) continue;  // keep ~half the pairs
      Tracked t;
      t.sub.at = static_cast<Time>(rng() % 1500);
      t.sub.src = src;
      t.sub.dst = dst;
      t.sub.bytes = static_cast<double>(100 + rng() % 40000);
      t.sub.cap = 0.5 + static_cast<double>(rng() % 200) / 10.0;
      flows.push_back(t);
    }
  }
  ASSERT_GE(flows.size(), 20u);

  sim::Engine engine;
  FluidNetwork net(engine, kCap);
  net.set_node_count(kNodes);
  net.set_node_capacity(1, 4.0, 12.0);
  net.set_node_capacity(5, 25.0, 3.0);
  ConservationProbe probe(engine, net, flows);

  for (Tracked& f : flows) {
    engine.schedule_at(f.sub.at, [&engine, &net, &probe, &f] {
      net.submit(f.sub.src, f.sub.dst, f.sub.bytes, f.sub.cap,
                 [&probe, &f](Time end) {
                   // Rates were already recomputed for the survivors when
                   // this callback runs, so observing here both finalizes
                   // this flow's integral and opens the survivors' next
                   // segment.
                   probe.observe();
                   f.end = end;
                   f.finished = true;
                 });
      f.last_t = engine.now();
      probe.observe();
    });
  }
  engine.run();

  for (const Tracked& f : flows) {
    ASSERT_TRUE(f.finished) << f.sub.src << "->" << f.sub.dst;
    // The completion event fires at ceil(remaining / rate), so the
    // integral may overshoot by up to one ns worth of the flow's final
    // rate; the finish threshold (half a byte) bounds the undershoot.
    const double max_rate =
        std::min({f.sub.cap, ConservationProbe::egress_cap(f.sub.src),
                  ConservationProbe::ingress_cap(f.sub.dst)});
    EXPECT_GE(f.delivered, f.sub.bytes - 0.5)
        << f.sub.src << "->" << f.sub.dst;
    EXPECT_LE(f.delivered, f.sub.bytes + max_rate + 0.5)
        << f.sub.src << "->" << f.sub.dst;
    // Lower bound on wire time: the flow can never beat its best rate.
    EXPECT_GE(f.end, f.sub.at + static_cast<Time>(f.sub.bytes / max_rate))
        << f.sub.src << "->" << f.sub.dst;
  }
}

}  // namespace
}  // namespace partib::fabric

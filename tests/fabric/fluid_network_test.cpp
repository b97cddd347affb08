// Max-min fluid network: rate caps, link sharing, fan-in, and conservation
// properties.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fabric/fluid_network.hpp"
#include "sim/engine.hpp"

namespace partib::fabric {
namespace {

constexpr double kCap = 10.0;  // bytes per ns

class Net : public ::testing::Test {
 protected:
  sim::Engine engine;
  FluidNetwork net{engine, kCap};
  void SetUp() override { net.set_node_count(8); }
};

TEST_F(Net, SingleFlowRunsAtItsCap) {
  Time end = -1;
  net.submit(0, 1, /*bytes=*/1000.0, /*cap=*/5.0, [&](Time t) { end = t; });
  engine.run();
  EXPECT_EQ(end, 200);  // 1000 / 5
}

TEST_F(Net, SingleFlowLimitedByLink) {
  Time end = -1;
  net.submit(0, 1, 1000.0, /*cap=*/100.0, [&](Time t) { end = t; });
  engine.run();
  EXPECT_EQ(end, 100);  // 1000 / 10
}

TEST_F(Net, TwoFlowsShareEgressFairly) {
  std::vector<Time> ends;
  net.submit(0, 1, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  net.submit(0, 2, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  engine.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 200);  // each at 5 B/ns
  EXPECT_EQ(ends[1], 200);
}

TEST_F(Net, FanInSharesIngress) {
  std::vector<Time> ends;
  net.submit(1, 0, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  net.submit(2, 0, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  engine.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 200);
  EXPECT_EQ(ends[1], 200);
}

TEST_F(Net, DisjointPairsDoNotInterfere) {
  std::vector<Time> ends;
  net.submit(0, 1, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  net.submit(2, 3, 1000.0, 100.0, [&](Time t) { ends.push_back(t); });
  engine.run();
  for (Time t : ends) EXPECT_EQ(t, 100);
}

TEST_F(Net, CappedFlowLeavesHeadroomForOthers) {
  // Flow A capped at 2 B/ns; flow B (same egress) may use the remaining 8.
  Time a = -1, b = -1;
  net.submit(0, 1, 1000.0, 2.0, [&](Time t) { a = t; });
  net.submit(0, 2, 1000.0, 100.0, [&](Time t) { b = t; });
  engine.run();
  EXPECT_EQ(a, 500);  // 1000 / 2
  EXPECT_EQ(b, 125);  // 1000 / 8
}

TEST_F(Net, DepartureSpeedsUpSurvivor) {
  // Equal shares until the short flow drains, then the long one gets the
  // full link: 500 bytes at 5 => t=100; remaining 1500 at 10 => +150.
  Time long_end = -1;
  net.submit(0, 1, 2000.0, 100.0, [&](Time t) { long_end = t; });
  net.submit(0, 2, 500.0, 100.0, [](Time) {});
  engine.run();
  EXPECT_EQ(long_end, 250);
}

TEST_F(Net, LateArrivalSlowsExisting) {
  // Flow A alone for 100ns (1000 bytes done), then B arrives; both at 5.
  Time a = -1, b = -1;
  net.submit(0, 1, 2000.0, 100.0, [&](Time t) { a = t; });
  engine.schedule_at(100, [&] {
    net.submit(0, 2, 1000.0, 100.0, [&](Time t) { b = t; });
  });
  engine.run();
  EXPECT_EQ(a, 300);  // 1000 left at rate 5 => +200
  EXPECT_EQ(b, 300);  // 1000 at rate 5
}

TEST_F(Net, ZeroByteFlowCompletesImmediately) {
  Time end = -1;
  net.submit(0, 1, 0.0, 1.0, [&](Time t) { end = t; });
  engine.run();
  EXPECT_EQ(end, 0);
}

TEST_F(Net, LoopbackBypassesLink) {
  Time loop = -1, wire = -1;
  net.submit(0, 0, 1000.0, 2.0, [&](Time t) { loop = t; });
  net.submit(0, 1, 1000.0, 100.0, [&](Time t) { wire = t; });
  engine.run();
  EXPECT_EQ(loop, 500);  // cap-limited only
  EXPECT_EQ(wire, 100);  // full link despite the loopback flow
}

TEST_F(Net, CompletionCallbackMaySubmit) {
  Time second = -1;
  net.submit(0, 1, 1000.0, 100.0, [&](Time) {
    net.submit(0, 1, 1000.0, 100.0, [&](Time t) { second = t; });
  });
  engine.run();
  EXPECT_EQ(second, 200);
}

TEST_F(Net, ManyFlowsConservation) {
  // N flows from distinct sources into one sink: aggregate throughput is
  // exactly the sink's ingress capacity, so total time = total bytes / C.
  std::vector<Time> ends;
  constexpr int kFlows = 6;
  for (int i = 1; i <= kFlows; ++i) {
    net.submit(i, 0, 600.0, 100.0, [&](Time t) { ends.push_back(t); });
  }
  engine.run();
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(kFlows));
  for (Time t : ends) EXPECT_EQ(t, 360);  // 3600 bytes / 10 B/ns
}

TEST_F(Net, CompletedFlowsCounter) {
  net.submit(0, 1, 10.0, 1.0, [](Time) {});
  net.submit(0, 1, 10.0, 1.0, [](Time) {});
  engine.run();
  EXPECT_EQ(net.completed_flows(), 2u);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(Net, AsymmetricBytesFinishInSizeOrder) {
  std::vector<int> order;
  net.submit(0, 1, 100.0, 100.0, [&](Time) { order.push_back(0); });
  net.submit(0, 2, 10'000.0, 100.0, [&](Time) { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

int count_lines_with(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// A 5e-324 (smallest denormal) ingress link shared by two flows gives
// each a round-one share of 5e-324 / 2, which rounds to 0: both flows are
// parked at rate zero, with one fluid.zero_rate diagnostic per flow per
// completion scan.  Here both flows cross the saturated sink, so the
// uniform-rate path reports them: two lines, at the second submission.
TEST_F(Net, ZeroRateUniformFlowsReportOncePerScan) {
  net.set_node_capacity(0, kCap, 5e-324);
  int done = 0;
  testing::internal::CaptureStderr();
  net.submit(1, 0, 1000.0, 8.0, [&](Time) { ++done; });
  engine.schedule_at(5, [&] {
    net.submit(2, 0, 1000.0, 8.0, [&](Time) { ++done; });
  });
  engine.run();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_lines_with(err, "rule=fluid.zero_rate"), 2);
  EXPECT_EQ(count_lines_with(err, "time=5ns"), 2);
  EXPECT_EQ(done, 0);
  EXPECT_EQ(net.active_flows(), 2u);
}

// Same parked pair plus a healthy flow sharing one sender: the fill takes
// the multi-round path (the healthy flow re-fills after the pair freezes
// at zero).  The pair is reported at the healthy flow's submission and at
// its completion scan (t = 13: 100 bytes at 8 B/ns): 2 + 2 + 2 lines.
TEST_F(Net, ZeroRateMixedFlowsReportOncePerScan) {
  net.set_node_capacity(0, kCap, 5e-324);
  int done = 0;
  testing::internal::CaptureStderr();
  net.submit(1, 0, 1000.0, 8.0, [&](Time) { ++done; });
  net.submit(2, 0, 1000.0, 8.0, [&](Time) { ++done; });
  net.submit(1, 3, 100.0, 8.0, [&](Time) { ++done; });
  engine.run();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_lines_with(err, "rule=fluid.zero_rate"), 6);
  EXPECT_EQ(count_lines_with(err, "time=13ns"), 2);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(net.active_flows(), 2u);
}

// The node classes file each active node under its capacity, so a
// capacity change under live traffic is a bug, not a silent no-op.
TEST_F(Net, CapacityChangeUnderActiveFlowsDies) {
  net.submit(0, 1, 1000.0, 100.0, [](Time) {});
  EXPECT_DEATH(net.set_node_capacity(1, kCap, 5.0),
               "set_node_capacity on a node with active flows");
  EXPECT_DEATH(net.set_node_capacity(0, 5.0, kCap),
               "set_node_capacity on a node with active flows");
  net.submit(2, 3, 1000.0, 100.0, [](Time) {});  // two flows: classed
  EXPECT_DEATH(net.set_node_capacity(3, kCap, 5.0),
               "set_node_capacity on a node with active flows");
  net.set_node_capacity(4, 5.0, 5.0);  // an idle node may still change
  engine.run();
  net.set_node_capacity(1, kCap, 5.0);  // and so may a drained one
}

}  // namespace
}  // namespace partib::fabric

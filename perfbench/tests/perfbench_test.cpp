// The benchmark's own tests: the re-drives reproduce the trial forms bit
// for bit, the tracing decorators forward every call without changing
// what they wrap, and the shm-rt channel passes its data check.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bench/trial.hpp"
#include "fabric/trace.hpp"
#include "probes.hpp"
#include "redrive.hpp"
#include "runner/fingerprint.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace {

namespace bench = partib::bench;
namespace backend = partib::backend;
namespace fabric = partib::fabric;
using perfbench::Bucket;
using perfbench::Probe;
using perfbench::TrialLayers;

template <typename Config, typename Result>
void expect_redrives_match(const std::vector<Config>& grid,
                           Result (*trial)(const Config&),
                           Result (*redrive)(const Config&, Probe*,
                                             TrialLayers*)) {
  ASSERT_FALSE(grid.empty());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string want = perfbench::digest(trial(grid[i]));
    TrialLayers plain, traced;
    Probe probe;
    EXPECT_EQ(perfbench::digest(redrive(grid[i], nullptr, &plain)), want)
        << "plain re-drive, row " << i;
    EXPECT_EQ(perfbench::digest(redrive(grid[i], &probe, &traced)), want)
        << "traced re-drive, row " << i;
    EXPECT_GT(probe.events, 0u) << i;
    EXPECT_GT(probe.tally(Bucket::kPost).calls, 0u) << i;
    EXPECT_GT(traced.traced_ops, 0u) << i;
    EXPECT_EQ(plain.traced_ops, 0u) << i;
    EXPECT_EQ(plain.fabric.rdma_ops, traced.fabric.rdma_ops) << i;
  }
}

TEST(Redrive, ZooMatchesTrialForm) {
  expect_redrives_match(perfbench::zoo_grid(0, true), bench::zoo_trial,
                        perfbench::redrive_zoo);
  expect_redrives_match(perfbench::zoo_grid(7, true), bench::zoo_trial,
                        perfbench::redrive_zoo);
}

TEST(Redrive, IncastMatchesTrialForm) {
  expect_redrives_match(perfbench::incast_grid(true), bench::connscale_trial,
                        perfbench::redrive_connscale);
}

TEST(Redrive, SweepMatchesTrialForm) {
  expect_redrives_match(perfbench::sweep_grid(0, true), bench::sweep_trial,
                        perfbench::redrive_sweep);
  expect_redrives_match(perfbench::sweep_grid(7, true), bench::sweep_trial,
                        perfbench::redrive_sweep);
}

TEST(Workloads, SeedReachesOnlySeededRows) {
  const auto a = perfbench::zoo_grid(1, false);
  const auto b = perfbench::zoo_grid(2, false);
  ASSERT_EQ(a.size(), 30u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bench::fingerprint(a[i]) == bench::fingerprint(b[i]),
              perfbench::seed_free(a[i]))
        << i;
  }
  EXPECT_EQ(perfbench::incast_grid(false).size(), 8u);
  EXPECT_EQ(perfbench::sweep_grid(0, false).size(), 45u);
  EXPECT_EQ(perfbench::sweep_grid(0, false).front().seed, 0x5EEEE3Du);
}

/// A transport that records every call made on it.
class FakeTransport final : public backend::Transport {
 public:
  mutable std::map<std::string, int> calls;
  std::vector<fabric::RdmaOp> posted;
  std::vector<std::function<void()>> controls;
  fabric::FabricStats stats_value;
  fabric::FaultPlan plan;
  fabric::TraceSink* sink = nullptr;

  std::string_view kind() const override {
    ++calls["kind"];
    return "fake";
  }
  fabric::NodeId add_node() override {
    ++calls["add_node"];
    return 7;
  }
  int node_count() const override {
    ++calls["node_count"];
    return 3;
  }
  bool copies_data() const override {
    ++calls["copies_data"];
    return true;
  }
  void post_rdma_write(fabric::RdmaOp op) override {
    ++calls["post_rdma_write"];
    posted.push_back(std::move(op));
  }
  void send_control(fabric::NodeId, fabric::NodeId,
                    std::function<void()> deliver) override {
    ++calls["send_control"];
    controls.push_back(std::move(deliver));
  }
  const fabric::FabricStats& stats() const override {
    ++calls["stats"];
    return stats_value;
  }
  std::size_t wire_bytes_for(std::size_t bytes) const override {
    ++calls["wire_bytes_for"];
    return bytes + 1;
  }
  void set_fault_plan(const fabric::FaultPlan& p) override {
    ++calls["set_fault_plan"];
    plan = p;
  }
  const fabric::FaultPlan& fault_plan() const override {
    ++calls["fault_plan"];
    return plan;
  }
  void inject_qp_error(std::uint64_t) override { ++calls["inject_qp_error"]; }
  bool qp_chain_errored(std::uint64_t) override {
    ++calls["qp_chain_errored"];
    return true;
  }
  void reset_qp_chain(std::uint64_t) override { ++calls["reset_qp_chain"]; }
  void set_trace(fabric::TraceSink* s) override {
    ++calls["set_trace"];
    sink = s;
  }
  fabric::TraceSink* trace() override {
    ++calls["trace"];
    return sink;
  }
};

TEST(Decorators, TransportForwardsEveryCall) {
  FakeTransport fake;
  Probe probe;
  perfbench::TracingTransport t(fake, probe);

  EXPECT_EQ(t.kind(), "fake");
  EXPECT_EQ(t.add_node(), 7);
  EXPECT_EQ(t.node_count(), 3);
  EXPECT_TRUE(t.copies_data());
  EXPECT_EQ(&t.stats(), &fake.stats_value);
  EXPECT_EQ(t.wire_bytes_for(10), 11u);
  t.set_fault_plan(fabric::FaultPlan());
  EXPECT_EQ(&t.fault_plan(), &fake.plan);
  t.inject_qp_error(1);
  EXPECT_TRUE(t.qp_chain_errored(1));
  t.reset_qp_chain(1);
  fabric::TraceSink sink;
  t.set_trace(&sink);
  EXPECT_EQ(t.trace(), &sink);

  int moved = 0, sent = 0, received = 0, failed = 0, delivered = 0;
  fabric::RdmaOp op;
  op.bytes = 64;
  op.move_data = [&moved] { ++moved; };
  op.on_send_complete = [&sent](partib::Time) { ++sent; };
  op.on_recv_complete = [&received](partib::Time) { ++received; };
  op.on_failed = [&failed](partib::Time, fabric::OpFailure) { ++failed; };
  t.post_rdma_write(std::move(op));
  t.send_control(0, 1, [&delivered] { ++delivered; });

  ASSERT_EQ(fake.posted.size(), 1u);
  EXPECT_EQ(fake.posted[0].bytes, 64u);
  fake.posted[0].move_data();
  fake.posted[0].on_send_complete(5);
  fake.posted[0].on_recv_complete(6);
  fake.posted[0].on_failed(7, fabric::OpFailure::kFlushed);
  ASSERT_EQ(fake.controls.size(), 1u);
  fake.controls[0]();
  EXPECT_EQ(moved + sent + received + failed + delivered, 5);

  for (const char* name :
       {"kind", "add_node", "node_count", "copies_data", "post_rdma_write",
        "send_control", "stats", "wire_bytes_for", "set_fault_plan",
        "fault_plan", "inject_qp_error", "qp_chain_errored",
        "reset_qp_chain", "set_trace", "trace"}) {
    EXPECT_EQ(fake.calls[name], 1) << name;
  }
  EXPECT_EQ(probe.tally(Bucket::kPost).calls, 1u);
  EXPECT_EQ(probe.tally(Bucket::kUpcall).calls, 3u);
  EXPECT_EQ(probe.tally(Bucket::kControl).calls, 1u);
}

/// A backend that records every call made on it.
class FakeBackend final : public backend::Backend {
 public:
  std::map<std::string, int> calls;
  partib::sim::Engine engine_;
  FakeTransport transport_;

  std::string_view name() const override { return "fake"; }
  backend::Transport& transport() override {
    ++calls["transport"];
    return transport_;
  }
  partib::sim::Engine& engine() override {
    ++calls["engine"];
    return engine_;
  }
  bool real_time() const override { return true; }
  partib::Time now() override {
    ++calls["now"];
    return 42;
  }
  void progress() override { ++calls["progress"]; }
  std::size_t run_until_idle() override {
    ++calls["run_until_idle"];
    return engine_.run();
  }
};

TEST(Decorators, BackendForwardsEveryCall) {
  auto owned = std::make_unique<FakeBackend>();
  FakeBackend* fake = owned.get();
  Probe probe;
  perfbench::TracingBackend b(std::move(owned), probe);

  EXPECT_EQ(b.name(), "fake");
  EXPECT_TRUE(b.real_time());
  EXPECT_EQ(b.now(), 42);
  EXPECT_EQ(&b.engine(), &fake->engine_);
  EXPECT_EQ(b.transport().kind(), "fake");
  b.progress();
  int ran = 0;
  b.engine().schedule_after(10, [&ran] { ++ran; }, "psend.progress");
  b.engine().schedule_after(20, [&ran] { ++ran; });
  EXPECT_EQ(b.run_until_idle(), 2u);
  EXPECT_EQ(ran, 2);

  EXPECT_EQ(fake->calls["now"], 1);
  EXPECT_EQ(fake->calls["progress"], 1);
  EXPECT_EQ(fake->calls["run_until_idle"], 1);
  EXPECT_EQ(fake->transport_.calls["kind"], 1);
  EXPECT_EQ(probe.events, 2u);
  EXPECT_EQ(probe.tally(Bucket::kPsendEvent).calls, 1u);
  EXPECT_EQ(probe.tally(Bucket::kUntaggedEvent).calls, 1u);
  EXPECT_EQ(probe.drains, 1u);
}

TEST(Decorators, AggregatorKeepsIdentityAndFingerprints) {
  Probe probe;
  for (const bench::ZooConfig& cfg : perfbench::zoo_grid(0, false)) {
    bench::ZooConfig traced = cfg;
    traced.options = perfbench::traced_options(cfg.options, &probe);
    const auto& inner = *cfg.options.aggregator;
    const auto& outer = *traced.options.aggregator;
    EXPECT_EQ(outer.describe(), inner.describe());
    EXPECT_STREQ(outer.name(), inner.name());
    EXPECT_EQ(bench::fingerprint(traced), bench::fingerprint(cfg));

    const partib::agg::Plan a = inner.plan(cfg.user_partitions, cfg.total_bytes);
    const partib::agg::Plan b = outer.plan(cfg.user_partitions, cfg.total_bytes);
    EXPECT_EQ(a.transport_partitions, b.transport_partitions);
    EXPECT_EQ(a.qp_count, b.qp_count);
    EXPECT_EQ(a.timer_based, b.timer_based);
    EXPECT_EQ(a.timer_delta, b.timer_delta);
    EXPECT_EQ(a.learning, b.learning);
    EXPECT_EQ(a.group_first, b.group_first);
    EXPECT_EQ(a.group_count, b.group_count);
  }
  EXPECT_EQ(probe.tally(Bucket::kPlan).calls, 30u);
}

TEST(Decorators, TracedBackendsAreRegistered) {
  Probe probe;
  perfbench::register_traced_backends();
  perfbench::set_active_probe(&probe);
  EXPECT_TRUE(backend::backend_registered("traced-des"));
  EXPECT_TRUE(backend::backend_registered("traced-shm"));
  auto des = backend::make_backend("traced-des");
  ASSERT_NE(des, nullptr);
  EXPECT_EQ(des->name(), "des");
  EXPECT_FALSE(des->real_time());
  auto shm = backend::make_backend("traced-shm");
  ASSERT_NE(shm, nullptr);
  EXPECT_EQ(shm->name(), "shm");
  EXPECT_TRUE(shm->real_time());
  perfbench::set_active_probe(nullptr);
}

TEST(ShmRt, RoundsPassTheirDataCheck) {
  Probe probe;
  for (const char* name : {"shm", "des"}) {
    for (const std::size_t psize : {perfbench::kShmSmallPartition,
                                    perfbench::kShmLargePartition}) {
      perfbench::ShmChannel plain(name, psize, nullptr);
      perfbench::ShmChannel traced(name, psize, &probe);
      for (int r = 0; r < 3; ++r) {
        EXPECT_GT(plain.round(r), 0) << name << " " << psize;
        EXPECT_GT(traced.round(r), 0) << name << " " << psize;
      }
      EXPECT_EQ(plain.round_bytes(), perfbench::kShmPartitions * psize);
    }
  }
  EXPECT_GT(probe.tally(Bucket::kUpcall).calls, 0u);
}

}  // namespace

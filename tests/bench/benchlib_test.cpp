// The benchmark harness itself: sane results from every trial form
// (overhead, perceived bandwidth, sweep, halo, workload zoo, connection
// scale), each running over a never-committed payload reservation, plus
// the parameter probe's recovery of the configured fabric parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bench/connscale.hpp"
#include "bench/halo.hpp"
#include "bench/overhead.hpp"
#include "bench/perceived.hpp"
#include "bench/probe.hpp"
#include "bench/report.hpp"
#include "bench/sweep.hpp"
#include "bench/zoo.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::bench {
namespace {

part::Options ploggp() { return test::ploggp_options(); }
part::Options persistent() { return test::persistent_options(); }

TEST(Overhead, ProducesPositiveDeterministicTimes) {
  OverheadConfig cfg;
  cfg.total_bytes = 64 * KiB;
  cfg.user_partitions = 16;
  cfg.options = ploggp();
  cfg.iterations = 5;
  cfg.warmup = 1;
  const auto a = run_overhead(cfg);
  const auto b = run_overhead(cfg);
  EXPECT_GT(a.mean_round, 0);
  EXPECT_EQ(a.mean_round, b.mean_round);  // fully deterministic
  EXPECT_EQ(a.min_round, b.min_round);
  EXPECT_GE(a.max_round, a.min_round);
}

TEST(Overhead, PersistentPostsOnePerPartitionPerRound) {
  OverheadConfig cfg;
  cfg.total_bytes = 64 * KiB;
  cfg.user_partitions = 8;
  cfg.options = persistent();
  cfg.iterations = 4;
  cfg.warmup = 1;
  const auto r = run_overhead(cfg);
  EXPECT_EQ(r.wrs_posted, 8u * 4u);
}

TEST(Overhead, RoundTimeGrowsWithMessageSize) {
  auto time_for = [&](std::size_t bytes) {
    OverheadConfig cfg;
    cfg.total_bytes = bytes;
    cfg.user_partitions = 16;
    cfg.options = ploggp();
    cfg.iterations = 3;
    cfg.warmup = 1;
    return run_overhead(cfg).mean_round;
  };
  EXPECT_LT(time_for(64 * KiB), time_for(16 * MiB));
}

TEST(Overhead, AggregationBeatsPersistentAtMediumSizes) {
  // The paper's core claim, as a regression test: at 128 KiB with 32
  // partitions the PLogGP aggregator must beat the UCX-like baseline.
  OverheadConfig cfg;
  cfg.total_bytes = 128 * KiB;
  cfg.user_partitions = 32;
  cfg.iterations = 5;
  cfg.warmup = 1;
  cfg.options = persistent();
  const auto base = run_overhead(cfg).mean_round;
  cfg.options = ploggp();
  const auto ours = run_overhead(cfg).mean_round;
  EXPECT_GT(static_cast<double>(base) / static_cast<double>(ours), 1.5);
}

TEST(Perceived, AboveWireForMediumBelowForStreams) {
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.options = persistent();
  cfg.iterations = 3;
  cfg.warmup = 1;
  const auto r = run_perceived_bandwidth(cfg);
  // Early-bird: perceived bandwidth well above the physical wire.
  EXPECT_GT(r.mean_gbytes_per_s, r.wire_gbytes_per_s * 2);
  EXPECT_GT(r.min_gbytes_per_s, 0.0);
  EXPECT_GE(r.max_gbytes_per_s, r.mean_gbytes_per_s);
}

TEST(Perceived, PlogGPBelowPersistent) {
  // Aggregation enlarges the laggard's message: Fig 9's ordering.
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.iterations = 3;
  cfg.warmup = 1;
  cfg.options = persistent();
  const double p = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  cfg.options = ploggp();
  const double a = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  EXPECT_GT(p, a);
}

TEST(Perceived, TimerRecoversTowardPersistent) {
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.iterations = 3;
  cfg.warmup = 1;
  cfg.options = ploggp();
  const double plain = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  cfg.options = test::timer_options(usec(100));
  const double timer = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  EXPECT_GT(timer, plain * 2);
}

TEST(Perceived, ProfilerReceivesTimelines) {
  prof::PartProfiler profiler(16);
  PerceivedConfig cfg;
  cfg.total_bytes = 1 * MiB;
  cfg.user_partitions = 16;
  cfg.options = ploggp();
  cfg.iterations = 2;
  cfg.warmup = 1;
  cfg.profiler = &profiler;
  (void)run_perceived_bandwidth(cfg);
  ASSERT_EQ(profiler.rounds().size(), 2u);
  for (const auto& round : profiler.rounds()) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_GE(round.pready_times[i], round.start_time);
      EXPECT_GE(round.arrival_times[i], round.pready_times[i]);
    }
  }
}

TEST(Sweep, SmallGridCompletes) {
  SweepConfig cfg;
  cfg.px = 3;
  cfg.py = 3;
  cfg.threads = 4;
  cfg.message_bytes = 64 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(100);
  cfg.noise = 0.04;
  cfg.iterations = 3;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);
  EXPECT_GT(r.total_time, 0);
  EXPECT_GT(r.comm_time, 0);
  EXPECT_EQ(r.compute_on_path, 3 * usec(100));
  EXPECT_EQ(r.total_time, r.comm_time + r.compute_on_path);
}

TEST(Sweep, DegenerateSingleRankGrid) {
  SweepConfig cfg;
  cfg.px = 1;
  cfg.py = 1;
  cfg.threads = 4;
  cfg.message_bytes = 4 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(50);
  cfg.noise = 0.0;
  cfg.iterations = 2;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);  // no channels at all: pure compute
  EXPECT_GT(r.total_time, 0);
}

TEST(Sweep, SingleRowPipeline) {
  SweepConfig cfg;
  cfg.px = 4;
  cfg.py = 1;
  cfg.threads = 2;
  cfg.message_bytes = 16 * KiB;
  cfg.options = persistent();
  cfg.compute = usec(100);
  cfg.noise = 0.01;
  cfg.iterations = 2;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);
  EXPECT_GT(r.comm_time, 0);
}

TEST(Sweep, DeterministicForSameSeed) {
  SweepConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.threads = 4;
  cfg.message_bytes = 64 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(200);
  cfg.noise = 0.04;
  cfg.iterations = 2;
  cfg.warmup = 1;
  EXPECT_EQ(run_sweep(cfg).total_time, run_sweep(cfg).total_time);
}

TEST(Halo, SmallGridCompletesDeterministically) {
  HaloConfig cfg;
  cfg.px = 3;
  cfg.py = 2;
  cfg.threads = 4;
  cfg.face_bytes = 64 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(100);
  cfg.iterations = 3;
  cfg.warmup = 1;
  const auto a = run_halo(cfg);
  EXPECT_GT(a.comm_time, 0);
  EXPECT_EQ(a.compute_on_path, 3 * usec(100));
  EXPECT_EQ(a.total_time, a.comm_time + a.compute_on_path);
  EXPECT_EQ(a.total_time, run_halo(cfg).total_time);
}

TEST(Zoo, LearningTrialIsDeterministic) {
  ZooConfig cfg;
  cfg.shape = ZooShape::kRandomPerm;
  cfg.total_bytes = 4 * MiB;
  cfg.user_partitions = 16;
  cfg.options = test::learning_options();
  cfg.epochs = 6;
  cfg.warmup = 2;
  cfg.seed = 7;
  const auto a = run_zoo(cfg);
  const auto b = run_zoo(cfg);
  EXPECT_GT(a.warm_gbytes_per_s, 0.0);
  EXPECT_GT(a.final_tp, 0);
  EXPECT_GT(a.mean_wrs_per_epoch, 0.0);
  EXPECT_EQ(a.warm_gbytes_per_s, b.warm_gbytes_per_s);
  EXPECT_EQ(a.all_gbytes_per_s, b.all_gbytes_per_s);
  EXPECT_EQ(a.final_tp, b.final_tp);
  EXPECT_EQ(a.replans_adopted, b.replans_adopted);
}

TEST(Zoo, PersistentPostsOnePerPartitionPerEpoch) {
  ZooConfig cfg;
  cfg.shape = ZooShape::kUniform;
  cfg.total_bytes = 1 * MiB;
  cfg.user_partitions = 8;
  cfg.options = persistent();
  cfg.epochs = 4;
  cfg.warmup = 1;
  const auto r = run_zoo(cfg);
  EXPECT_EQ(r.final_tp, 8);
  EXPECT_EQ(r.mean_wrs_per_epoch, 8.0);
  EXPECT_EQ(r.replans_adopted, 0);
}

TEST(ConnScale, SharedIncastShrinksTheHotFootprint) {
  ConnScaleConfig cfg;
  cfg.peers = 8;
  cfg.bytes = 16 * KiB;
  cfg.user_partitions = 8;
  cfg.options = test::static_options(/*tp=*/4, /*qps=*/1);
  const auto ded = run_connscale(cfg);
  cfg.options.shared_resources = true;
  const auto shr = run_connscale(cfg);
  EXPECT_GT(ded.mean_round, 0);
  EXPECT_GT(shr.mean_round, 0);
  EXPECT_EQ(ded.hot_qps, 8);
  EXPECT_EQ(shr.hot_srqs, 1);
  EXPECT_LT(shr.hot_provisioned_bytes, ded.hot_provisioned_bytes);
  EXPECT_EQ(ded.establishments, 0u);
  EXPECT_EQ(shr.establishments, 8u);
}

TEST(ConnScale, AlltoallIgnoresCopyDataRequest) {
  // The trial form only times the exchange; a copy_data request must not
  // reach the fabric (it would fault on the shared payload reservation)
  // nor change the result.
  ConnScaleConfig cfg;
  cfg.peers = 4;
  cfg.alltoall = true;
  cfg.bytes = 4 * KiB;
  cfg.user_partitions = 4;
  cfg.options = ploggp();
  cfg.world.copy_data = false;
  const auto quiet = run_connscale(cfg);
  cfg.world.copy_data = true;
  const auto asked = run_connscale(cfg);
  EXPECT_GT(quiet.mean_round, 0);
  EXPECT_EQ(quiet.mean_round, asked.mean_round);
  EXPECT_EQ(quiet.hot_qps, asked.hot_qps);
}

TEST(Probe, RecoversEffectivePerByteCost) {
  const auto params = fabric::NicParams::connectx5_edr();
  const auto probe = run_parameter_probe(params);
  // The slope includes the per-QP engine share: G_eff = G / share.
  const double expected = params.wire.G / params.qp_bw_share;
  EXPECT_NEAR(probe.G, expected, expected * 0.02);
}

TEST(Probe, InterceptMatchesFixedCosts) {
  const auto params = fabric::NicParams::connectx5_edr();
  const auto probe = run_parameter_probe(params);
  const Duration expected = params.wire.g + params.wire.o_s +
                            params.wire.L + params.wire.o_r;
  EXPECT_NEAR(static_cast<double>(probe.intercept),
              static_cast<double>(expected),
              static_cast<double>(expected) * 0.05);
}

TEST(Probe, AsLoggpIsInternallyConsistent) {
  const auto probe = run_parameter_probe(fabric::NicParams::connectx5_edr());
  const auto p = probe.as_loggp();
  EXPECT_DOUBLE_EQ(p.G, probe.G);
  EXPECT_EQ(p.g, probe.gap);
  EXPECT_EQ(p.L + p.g, std::max<Duration>(probe.intercept, p.g));
}

TEST(Report, TableFormatsAndCsv) {
  Table t("demo", {"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,bb\n1,2\n333,4\n");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("333"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-2.5, 1), "-2.5");
}

}  // namespace
}  // namespace partib::bench

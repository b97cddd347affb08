// The PLogGP model and optimizer — including the reproduction of the
// paper's Table I, the headline analytic result the aggregators rely on.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/units.hpp"
#include "model/loggp.hpp"
#include "model/ploggp.hpp"

namespace partib::model {
namespace {

LogGPParams simple_params() {
  LogGPParams p;
  p.L = 1000;
  p.o_s = 100;
  p.o_r = 200;
  p.g = 500;
  p.G = 0.1;
  return p;
}

TEST(LogGP, PerMessageCostIsMaxOfGapAndOverheads) {
  LogGPParams p = simple_params();
  EXPECT_EQ(p.per_message_cost(), 500);
  p.o_s = 900;
  EXPECT_EQ(p.per_message_cost(), 900);
  p.o_r = 1200;
  EXPECT_EQ(p.per_message_cost(), 1200);
}

TEST(PLogGP, Fig2FormulaForTwoMessages) {
  // The paper's Fig 2: o_s + 2G(k-1) + max(g, o_s, o_r) + L + o_r.
  const LogGPParams p = simple_params();
  const std::size_t k = 1001;
  const Duration expected = 100 + 2 * static_cast<Duration>(0.1 * 1000) +
                            500 + 1000 + 200;
  EXPECT_EQ(back_to_back_time(p, k, 2), expected);
}

TEST(PLogGP, SingleMessageIsClassicLogGP) {
  const LogGPParams p = simple_params();
  // o_s + G(k-1) + L + o_r
  EXPECT_EQ(single_message_time(p, 1), 100 + 0 + 1000 + 200);
  EXPECT_EQ(single_message_time(p, 10'001),
            100 + static_cast<Duration>(0.1 * 10'000) + 1000 + 200);
}

TEST(PLogGP, BackToBackGrowsLinearlyInMessages) {
  const LogGPParams p = simple_params();
  const Duration t2 = back_to_back_time(p, 1024, 2);
  const Duration t3 = back_to_back_time(p, 1024, 3);
  const Duration t4 = back_to_back_time(p, 1024, 4);
  EXPECT_EQ(t3 - t2, t4 - t3);
  EXPECT_GT(t3, t2);
}

TEST(PLogGP, CompletionTimeIncludesDelay) {
  const LogGPParams p = simple_params();
  const PLogGPQuery q{1 * MiB, 1, msec(4)};
  const PLogGPQuery q0{1 * MiB, 1, 0};
  EXPECT_EQ(completion_time(p, q) - completion_time(p, q0), msec(4));
}

TEST(PLogGP, MorePartitionsShrinkLaggardWireTime) {
  const LogGPParams p = simple_params();
  // With zero per-message cost the laggard's k/P wire term dominates.
  LogGPParams cheap = p;
  cheap.g = cheap.o_s = cheap.o_r = 0;
  const Duration t1 = completion_time(cheap, {16 * MiB, 1, msec(4)});
  const Duration t16 = completion_time(cheap, {16 * MiB, 16, msec(4)});
  EXPECT_GT(t1, t16);
}

TEST(PLogGP, PerMessageCostPenalisesManyPartitionsForSmallMessages) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  const Duration t1 = completion_time(p, {4 * KiB, 1, msec(4)});
  const Duration t32 = completion_time(p, {4 * KiB, 32, msec(4)});
  EXPECT_LT(t1, t32);  // Fig 3's small-message regime
}

TEST(PLogGP, LargeMessagesFavourManyPartitions) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  const Duration t1 = completion_time(p, {256 * MiB, 1, msec(4)});
  const Duration t32 = completion_time(p, {256 * MiB, 32, msec(4)});
  EXPECT_GT(t1, t32);  // Fig 3's large-message regime
}

TEST(PLogGP, DrainAwareModelNeverFasterThanHeadline) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  for (std::size_t bytes : pow2_sizes(1 * KiB, 256 * MiB)) {
    for (std::size_t P : {1u, 2u, 8u, 32u}) {
      if (bytes < P) continue;
      const PLogGPQuery q{bytes, P, msec(4)};
      EXPECT_GE(completion_time_with_drain(p, q), completion_time(p, q))
          << bytes << " " << P;
    }
  }
}

TEST(PLogGP, DrainTermKicksInForHugeMessages) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  // 512 MiB at 32 partitions: the 31 early partitions cannot be injected
  // within 4 ms, so the refined model is strictly slower.
  const PLogGPQuery q{512 * MiB, 32, msec(4)};
  EXPECT_GT(completion_time_with_drain(p, q), completion_time(p, q));
}

// --- Table I ----------------------------------------------------------------

TEST(Optimizer, ReproducesPaperTableI) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  const OptimizerConfig cfg;  // 4 ms delay, cap 32
  struct Row {
    std::size_t bytes;
    std::size_t expected_tp;
  };
  // The exact rows of the paper's Table I.
  const Row rows[] = {
      {64 * KiB, 1},  {128 * KiB, 1}, {256 * KiB, 1},
      {512 * KiB, 2}, {1 * MiB, 2},
      {2 * MiB, 4},   {4 * MiB, 4},
      {8 * MiB, 8},   {16 * MiB, 8},
      {32 * MiB, 16}, {64 * MiB, 16},
      {128 * MiB, 32}, {256 * MiB, 32},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(optimal_transport_partitions(p, row.bytes, 32, cfg),
              row.expected_tp)
        << "at " << format_bytes(row.bytes);
  }
}

TEST(Optimizer, NeverExceedsUserPartitions) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  EXPECT_LE(optimal_transport_partitions(p, 256 * MiB, 4), 4u);
  EXPECT_LE(optimal_transport_partitions(p, 256 * MiB, 1), 1u);
}

TEST(Optimizer, RespectsConfiguredCap) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  OptimizerConfig cfg;
  cfg.max_transport_partitions = 8;
  EXPECT_LE(optimal_transport_partitions(p, 256 * MiB, 128, cfg), 8u);
}

TEST(Optimizer, MonotoneNonDecreasingInMessageSize) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  std::size_t prev = 1;
  for (std::size_t bytes : pow2_sizes(1 * KiB, 512 * MiB)) {
    const std::size_t tp = optimal_transport_partitions(p, bytes, 128);
    EXPECT_GE(tp, prev) << format_bytes(bytes);
    prev = tp;
  }
}

TEST(Optimizer, ResultAlwaysPowerOfTwo) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  for (std::size_t bytes : pow2_sizes(1 * KiB, 256 * MiB)) {
    const std::size_t tp = optimal_transport_partitions(p, bytes, 64);
    EXPECT_TRUE(is_pow2(tp)) << tp;
  }
}

TEST(Optimizer, ZeroDelayStillAggregatesSmallMessages) {
  // Without a laggard the per-message overhead dominates everywhere, so
  // the optimizer should keep one transport partition.
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  OptimizerConfig cfg;
  cfg.delay = 0;
  EXPECT_EQ(optimal_transport_partitions(p, 64 * KiB, 32, cfg), 1u);
}

TEST(Optimizer, TinyMessageCannotSplitBelowOneByte) {
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  EXPECT_EQ(optimal_transport_partitions(p, 2, 4), 1u);
}

TEST(Optimizer, ThresholdScalingFollowsSqrtLaw) {
  // The analytic optimum is P* = sqrt(K*G/c): quadrupling the message
  // size should double the chosen partition count deep in the scaling
  // regime.
  const LogGPParams p = LogGPParams::niagara_mpi_measured();
  const std::size_t tp_a = optimal_transport_partitions(p, 8 * MiB, 1024);
  const std::size_t tp_b = optimal_transport_partitions(p, 32 * MiB, 1024);
  EXPECT_EQ(tp_b, 2 * tp_a);
}

TEST(ModelDrain, DelayMovesTheDrainAwareOptimum) {
  const auto p = model::LogGPParams::niagara_mpi_measured();
  model::OptimizerConfig small_delay;
  small_delay.delay = usec(10);
  model::OptimizerConfig big_delay;
  big_delay.delay = msec(20);
  const std::size_t tp_small = model::optimal_transport_partitions_with_drain(
      p, 256 * MiB, 32, small_delay);
  const std::size_t tp_big = model::optimal_transport_partitions_with_drain(
      p, 256 * MiB, 32, big_delay);
  EXPECT_LT(tp_small, tp_big);
}

}  // namespace
}  // namespace partib::model

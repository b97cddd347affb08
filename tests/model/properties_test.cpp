// Parameterized property sweeps over the analytic models: invariants that
// must hold for any parameter set, not just the calibrated defaults.
#include <gtest/gtest.h>

#include <tuple>

#include "common/bits.hpp"
#include "common/units.hpp"
#include "model/loggp.hpp"
#include "model/ploggp.hpp"

namespace partib::model {
namespace {

using ParamCase = std::tuple<int /*g_us*/, int /*G_centi_ns*/>;

class ModelProperties : public ::testing::TestWithParam<ParamCase> {
 protected:
  LogGPParams params() const {
    LogGPParams p;
    p.L = usec(2);
    p.o_s = nsec(800);
    p.o_r = nsec(900);
    p.g = usec(std::get<0>(GetParam()));
    p.G = std::get<1>(GetParam()) / 100.0;
    return p;
  }
};

TEST_P(ModelProperties, CompletionTimeMonotoneInMessageSize) {
  const LogGPParams p = params();
  for (std::size_t P : {1u, 4u, 16u}) {
    Duration prev = 0;
    for (std::size_t bytes : pow2_sizes(1 * KiB, 64 * MiB)) {
      const Duration t = completion_time(p, {bytes, P, msec(1)});
      EXPECT_GE(t, prev) << bytes << " P=" << P;
      prev = t;
    }
  }
}

TEST_P(ModelProperties, CompletionTimeMonotoneInDelay) {
  const LogGPParams p = params();
  Duration prev = 0;
  for (Duration d : {usec(0), usec(10), usec(100), msec(1), msec(10)}) {
    const Duration t = completion_time(p, {4 * MiB, 8, d});
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST_P(ModelProperties, OptimizerMonotoneInSize) {
  const LogGPParams p = params();
  std::size_t prev = 1;
  for (std::size_t bytes : pow2_sizes(1 * KiB, 256 * MiB)) {
    const std::size_t tp = optimal_transport_partitions(p, bytes, 256);
    EXPECT_GE(tp, prev) << bytes;
    EXPECT_TRUE(is_pow2(tp));
    prev = tp;
  }
}

TEST_P(ModelProperties, OptimizerPicksTrueArgmin) {
  const LogGPParams p = params();
  OptimizerConfig cfg;
  for (std::size_t bytes : {256 * KiB, 8 * MiB, 128 * MiB}) {
    const std::size_t best = optimal_transport_partitions(p, bytes, 64, cfg);
    const Duration t_best = completion_time(p, {bytes, best, cfg.delay});
    for (std::size_t P = 1; P <= 32; P *= 2) {
      EXPECT_LE(t_best, completion_time(p, {bytes, P, cfg.delay}))
          << bytes << " challenger P=" << P;
    }
  }
}

TEST_P(ModelProperties, DrainModelDominatesHeadline) {
  const LogGPParams p = params();
  for (std::size_t bytes : pow2_sizes(1 * KiB, 64 * MiB)) {
    for (std::size_t P : {1u, 8u, 32u}) {
      if (bytes < P) continue;
      const PLogGPQuery q{bytes, P, usec(50)};
      EXPECT_GE(completion_time_with_drain(p, q), completion_time(p, q));
    }
  }
}

TEST_P(ModelProperties, BackToBackSuperAdditive) {
  // m messages back to back never beat m separate ideal messages minus
  // shared latency (the gap term must cost something).
  const LogGPParams p = params();
  const Duration t1 = single_message_time(p, 4 * KiB);
  const Duration t4 = back_to_back_time(p, 4 * KiB, 4);
  EXPECT_GE(t4, t1 + 3 * p.per_message_cost());
}

INSTANTIATE_TEST_SUITE_P(
    GapBandwidthGrid, ModelProperties,
    ::testing::Combine(::testing::Values(1, 5, 15, 40),   // g in us
                       ::testing::Values(4, 8, 33, 80)),  // G in ns/B * 100
    [](const ::testing::TestParamInfo<ParamCase>& info) {
      std::string name = "g";
      name += std::to_string(std::get<0>(info.param));
      name += "us_G";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace partib::model

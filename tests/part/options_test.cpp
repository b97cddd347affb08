// part::Options::defaults() and its environment-variable plumbing.
#include <gtest/gtest.h>

#include <cstdlib>

#include "agg/strategies.hpp"
#include "part/options.hpp"

namespace partib::part {
namespace {

class OptionsEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("PARTIB_TIMER_DELTA_US");
    ::unsetenv("PARTIB_TRANSPORT_PARTITIONS");
    ::unsetenv("PARTIB_QP_COUNT");
  }
};

TEST_F(OptionsEnv, DefaultIsPlogGP) {
  const Options o = Options::defaults();
  ASSERT_NE(o.aggregator, nullptr);
  EXPECT_STREQ(o.aggregator->name(), "ploggp");
  EXPECT_EQ(o.transport_partitions_override, 0u);
  EXPECT_EQ(o.qp_count_override, 0);
}

TEST_F(OptionsEnv, DeltaEnvSelectsTimerAggregator) {
  ::setenv("PARTIB_TIMER_DELTA_US", "35", 1);
  const Options o = Options::defaults();
  ASSERT_NE(o.aggregator, nullptr);
  EXPECT_STREQ(o.aggregator->name(), "timer-ploggp");
  const auto* timer =
      dynamic_cast<const agg::TimerPLogGPAggregator*>(o.aggregator.get());
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->delta(), usec(35));
}

TEST_F(OptionsEnv, OverridesReadFromEnvironment) {
  ::setenv("PARTIB_TRANSPORT_PARTITIONS", "8", 1);
  ::setenv("PARTIB_QP_COUNT", "2", 1);
  const Options o = Options::defaults();
  EXPECT_EQ(o.transport_partitions_override, 8u);
  EXPECT_EQ(o.qp_count_override, 2);
}

TEST_F(OptionsEnv, UcxModelDefaultsAreOrdered) {
  const Options o = Options::defaults();
  EXPECT_LT(o.ucx.bcopy_max, o.ucx.rndv_min);
  EXPECT_GT(o.ucx.eager_wire_share, 0.0);
  EXPECT_LE(o.ucx.eager_wire_share, 1.0);
  EXPECT_GT(o.ucx.o_zcopy, o.ucx.o_bcopy);
}

}  // namespace
}  // namespace partib::part

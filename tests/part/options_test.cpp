// part::Options::defaults().
#include <gtest/gtest.h>

#include "part/options.hpp"

namespace partib::part {
namespace {

TEST(OptionsEnv, DefaultIsPlogGP) {
  const Options o = Options::defaults();
  ASSERT_NE(o.aggregator, nullptr);
  EXPECT_STREQ(o.aggregator->name(), "ploggp");
  EXPECT_EQ(o.transport_partitions_override, 0u);
  EXPECT_EQ(o.qp_count_override, 0);
}

TEST(OptionsEnv, UcxModelDefaultsAreOrdered) {
  const Options o = Options::defaults();
  EXPECT_LT(o.ucx.bcopy_max, o.ucx.rndv_min);
  EXPECT_GT(o.ucx.eager_wire_share, 0.0);
  EXPECT_LE(o.ucx.eager_wire_share, 1.0);
  EXPECT_GT(o.ucx.o_zcopy, o.ucx.o_bcopy);
}

}  // namespace
}  // namespace partib::part

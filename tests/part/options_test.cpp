// part::Options::defaults().
#include <gtest/gtest.h>

#include "part/options.hpp"

namespace partib::part {
namespace {

TEST(OptionsEnv, DefaultIsPlogGP) {
  const Options o = Options::defaults();
  ASSERT_NE(o.aggregator, nullptr);
  EXPECT_STREQ(o.aggregator->name(), "ploggp");
}

}  // namespace
}  // namespace partib::part

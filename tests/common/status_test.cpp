#include <gtest/gtest.h>

#include "common/status.hpp"

namespace partib {
namespace {

TEST(StatusTest, ToStringCoversAllCodes) {
  EXPECT_STREQ(to_string(Status::kOk), "OK");
  EXPECT_STREQ(to_string(Status::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_STREQ(to_string(Status::kInvalidState), "INVALID_STATE");
  EXPECT_STREQ(to_string(Status::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(to_string(Status::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(to_string(Status::kUnsupported), "UNSUPPORTED");
  EXPECT_STREQ(to_string(Status::kRemoteError), "REMOTE_ERROR");
}

TEST(StatusTest, OkHelper) {
  EXPECT_TRUE(ok(Status::kOk));
  EXPECT_FALSE(ok(Status::kInvalidArgument));
}

}  // namespace
}  // namespace partib

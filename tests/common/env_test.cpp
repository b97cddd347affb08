#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"
#include "common/status.hpp"

namespace partib {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
    set_.push_back(name);
  }
  void TearDown() override {
    for (const char* name : set_) ::unsetenv(name);
  }
  std::vector<const char*> set_;
};

TEST_F(EnvTest, StringUnsetReturnsNullopt) {
  ::unsetenv("PARTIB_TEST_UNSET");
  EXPECT_FALSE(env_string("PARTIB_TEST_UNSET").has_value());
}

TEST_F(EnvTest, StringEmptyTreatedAsUnset) {
  SetEnv("PARTIB_TEST_EMPTY", "");
  EXPECT_FALSE(env_string("PARTIB_TEST_EMPTY").has_value());
}

TEST_F(EnvTest, StringRoundTrip) {
  SetEnv("PARTIB_TEST_STR", "hello");
  EXPECT_EQ(env_string("PARTIB_TEST_STR").value(), "hello");
}

TEST_F(EnvTest, IntFallback) {
  ::unsetenv("PARTIB_TEST_INT");
  EXPECT_EQ(env_int("PARTIB_TEST_INT", 42), 42);
}

TEST_F(EnvTest, IntParsesValue) {
  SetEnv("PARTIB_TEST_INT", "123");
  EXPECT_EQ(env_int("PARTIB_TEST_INT", 0), 123);
}

TEST_F(EnvTest, IntParsesNegative) {
  SetEnv("PARTIB_TEST_INT", "-7");
  EXPECT_EQ(env_int("PARTIB_TEST_INT", 0), -7);
}

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

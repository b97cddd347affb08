// Arrival-pattern generators and the deterministic RNG.
#include <gtest/gtest.h>

#include "common/time.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::sim {
namespace {

TEST(Noise, ManyBeforeOneDelaysOnlyLaggard) {
  // The paper's canonical case: 100 ms compute, 4% noise => 4 ms delay.
  const auto p = many_before_one(32, msec(100), 0.04, /*laggard=*/5);
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i == 5) {
      EXPECT_EQ(p[i], msec(104));
    } else {
      EXPECT_EQ(p[i], msec(100));
    }
  }
}

TEST(Noise, ManyBeforeOneZeroNoiseIsUniform) {
  const auto p = many_before_one(4, msec(1), 0.0);
  for (Duration d : p) EXPECT_EQ(d, msec(1));
}

TEST(Noise, ManyBeforeOneDefaultLaggardIsZero) {
  const auto p = many_before_one(4, msec(1), 0.5);
  EXPECT_GT(p[0], p[1]);
}

TEST(Noise, StaggeredIsArithmetic) {
  const auto p = staggered(5, usec(10), usec(2));
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i], usec(10) + static_cast<Duration>(i) * usec(2));
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformMeanIsCentred) {
  Rng rng(17);
  double sum = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform(0.0, 10.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

}  // namespace
}  // namespace partib::sim

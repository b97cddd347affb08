#include "sim/noise.hpp"

#include <cstdint>

#include "common/assert.hpp"

namespace partib::sim {

ArrivalPattern many_before_one(std::size_t threads, Duration compute,
                               double noise_fraction, std::size_t laggard) {
  PARTIB_ASSERT(threads > 0 && laggard < threads);
  PARTIB_ASSERT(noise_fraction >= 0.0);
  ArrivalPattern p(threads, compute);
  p[laggard] = compute + static_cast<Duration>(
                             static_cast<double>(compute) * noise_fraction);
  return p;
}

ArrivalPattern jittered_many_before_one(std::size_t threads, Duration compute,
                                        double noise_fraction,
                                        Duration jitter_per_thread, Rng& rng) {
  const auto laggard = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(threads) - 1));
  ArrivalPattern p =
      many_before_one(threads, compute, noise_fraction, laggard);
  const Duration span = jitter_per_thread * static_cast<Duration>(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    if (i != laggard) {
      p[i] += static_cast<Duration>(
          rng.uniform(0.0, static_cast<double>(span)));
    }
  }
  return p;
}

ArrivalPattern staggered(std::size_t threads, Duration compute,
                         Duration stagger) {
  PARTIB_ASSERT(threads > 0 && compute >= 0 && stagger >= 0);
  ArrivalPattern p(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    p[i] = compute + static_cast<Duration>(i) * stagger;
  }
  return p;
}

}  // namespace partib::sim

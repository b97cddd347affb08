// Host-speed reference for the untraced timings.
//
// The benchmark runs on a shared, virtualised host whose speed drifts by
// tens of percent over minutes: other tenants slow every instruction while
// thread CPU time keeps tracking wall time, so neither CPU time nor
// min-of-N removes it.  HostSpeed samples a fixed reference kernel between
// trials -- page faults and writes on a fresh anonymous mapping, an event
// queue (binary heap), hash-map node churn and dependent loads over an
// 8 MiB table, the kinds of work the trials spend their time on -- and
// gives the factor that rescales host seconds to a host on which one
// sample takes kNominalSampleS.  The kernel is perfbench's own code, so a
// change to the library moves the trial times and not the reference.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Mean seconds of one reference sample on a quiet reference host
  /// (4-core Xeon, Sapphire Rapids, KVM guest).  Only the scale of the
  /// rescaled figures depends on it.
  static constexpr double kNominalSampleS = 3e-3;
  /// Reference time run after each timed stretch, as a share of it.
  static constexpr double kShare = 0.1;

  HostSpeed();

  /// Runs reference samples for about kShare of `busy_s` (at least one).
  void sample_after(double busy_s);
  /// kNominalSampleS over the mean sample since the last reset(): host
  /// seconds measured meanwhile times this are reference-host seconds.
  double factor() const;
  void reset();

 private:
  double sample();
  std::uint64_t next();

  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      queue_;
  std::unordered_map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint32_t> chase_;
  std::uint32_t cursor_ = 0;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
  std::int64_t samples_ = 0;
  double seconds_ = 0.0;
};

}  // namespace perfbench

#include "bench/overhead.hpp"

#include <algorithm>
#include <limits>

#include "bench/trial_world.hpp"
#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

OverheadResult run_overhead(backend::Backend& be, const OverheadConfig& cfg) {
  PARTIB_ASSERT(cfg.total_bytes > 0 && cfg.user_partitions > 0);
  TwoRankChannel ch(be, cfg.world, cfg.total_bytes, cfg.user_partitions,
                    cfg.options);
  part::PsendRequest& send = *ch.send;
  part::PrecvRequest& recv = *ch.recv;
  sim::ProcessorSharingCpu& cpu = ch.world.rank(0).cpu();

  OverheadResult res;
  res.min_round = std::numeric_limits<Duration>::max();
  Duration sum = 0;
  int measured = 0;
  std::uint64_t wrs_at_measure_start = 0;
  Duration cpu_at_measure_start = 0;

  sim::Rng rng(cfg.seed);
  const Duration jitter_span =
      cfg.start_jitter_per_thread *
      static_cast<Duration>(cfg.user_partitions);

  // Jitter delays are scheduled directly (below), so any CPU work on the
  // sender rank during the measured window is communication work.
  for (int iter = 0; iter < cfg.warmup + cfg.iterations; ++iter) {
    if (iter == cfg.warmup) {
      wrs_at_measure_start = send.wrs_posted_total();
      cpu_at_measure_start = cpu.total_work_submitted();
    }
    const Time t0 = be.now();
    PARTIB_ASSERT(ok(send.start()));
    PARTIB_ASSERT(ok(recv.start()));
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      const auto delay = static_cast<Duration>(
          rng.uniform(0.0, static_cast<double>(jitter_span)));
      be.engine().schedule_after(
          delay, [&send, i] { PARTIB_ASSERT(ok(send.pready(i))); });
    }
    be.run_until_idle();
    PARTIB_ASSERT(send.test() && recv.test());
    const Duration dt = be.now() - t0;
    if (iter >= cfg.warmup) {
      sum += dt;
      res.min_round = std::min(res.min_round, dt);
      res.max_round = std::max(res.max_round, dt);
      ++measured;
    }
  }
  res.mean_round = sum / std::max(measured, 1);
  res.wrs_posted = send.wrs_posted_total() - wrs_at_measure_start;
  res.host_cpu_per_round =
      (cpu.total_work_submitted() - cpu_at_measure_start) /
      std::max(measured, 1);
  return res;
}

OverheadResult run_overhead(const OverheadConfig& cfg) {
  return on_des(run_overhead, cfg);
}

}  // namespace partib::bench

#include "bench/perceived.hpp"

#include <algorithm>
#include <limits>

#include "bench/timeline_buffer.hpp"
#include "common/assert.hpp"
#include "part/partitioned.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

PerceivedResult run_perceived_bandwidth(PerceivedConfig cfg) {
  PARTIB_ASSERT(cfg.total_bytes > 0 && cfg.user_partitions > 0);
  sim::Engine engine;
  cfg.world.ranks = 2;
  cfg.world.copy_data = false;
  mpi::World world(engine, cfg.world);
  sim::Rng rng(cfg.seed);

  const TimelineBuffer payload(cfg.total_bytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::psend_init(world.rank(0), payload.span(),
                                    cfg.user_partitions, 1, 0, 0, cfg.options,
                                    &send)));
  PARTIB_ASSERT(ok(part::precv_init(world.rank(1), payload.span(),
                                    cfg.user_partitions, 0, 0, 0, cfg.options,
                                    &recv)));
  engine.run();

  PerceivedResult res;
  res.min_gbytes_per_s = std::numeric_limits<double>::max();
  res.wire_gbytes_per_s = cfg.world.nic.link_bytes_per_ns();  // B/ns == GB/s
  double sum = 0.0;
  int measured = 0;
  std::uint64_t wrs_at_measure_start = 0;

  for (int iter = 0; iter < cfg.warmup + cfg.iterations; ++iter) {
    const bool record = iter >= cfg.warmup;
    if (iter == cfg.warmup) wrs_at_measure_start = send->wrs_posted_total();
    PARTIB_ASSERT(ok(send->start()));
    PARTIB_ASSERT(ok(recv->start()));
    if (record && cfg.profiler != nullptr) {
      cfg.profiler->begin_round(engine.now());
    }

    // Single-thread-delay arrival pattern plus per-thread jitter.
    const std::size_t laggard = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cfg.user_partitions) - 1));
    sim::ArrivalPattern pattern = sim::many_before_one(
        cfg.user_partitions, cfg.compute, cfg.noise, laggard);
    const Duration jitter_span =
        cfg.jitter_per_thread *
        static_cast<Duration>(cfg.user_partitions);
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      if (i == laggard) continue;
      pattern[i] += static_cast<Duration>(
          rng.uniform(0.0, static_cast<double>(jitter_span)));
    }

    Time last_pready = 0;
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      world.rank(0).cpu().submit(pattern[i], [&, i, record] {
        last_pready = std::max(last_pready, engine.now());
        if (record && cfg.profiler != nullptr) {
          cfg.profiler->record_pready(i, engine.now());
        }
        PARTIB_ASSERT(ok(send->pready(i)));
      });
    }
    Time recv_done = -1;
    recv->when_complete([&] { recv_done = engine.now(); });
    if (record && cfg.profiler != nullptr) {
      recv->set_arrival_hook([&cfg](std::size_t p, Time t) {
        cfg.profiler->record_arrival(p, t);
      });
    } else {
      recv->set_arrival_hook(nullptr);
    }
    engine.run();
    PARTIB_ASSERT(send->test() && recv->test());
    PARTIB_ASSERT(recv_done >= last_pready);

    if (record) {
      const double latency =
          static_cast<double>(recv_done - last_pready);  // ns
      const double gbps = static_cast<double>(cfg.total_bytes) / latency;
      sum += gbps;
      res.min_gbytes_per_s = std::min(res.min_gbytes_per_s, gbps);
      res.max_gbytes_per_s = std::max(res.max_gbytes_per_s, gbps);
      ++measured;
    }
  }
  res.mean_gbytes_per_s = sum / std::max(measured, 1);
  res.mean_wrs_per_round =
      static_cast<double>(send->wrs_posted_total() - wrs_at_measure_start) /
      std::max(measured, 1);
  return res;
}

}  // namespace partib::bench

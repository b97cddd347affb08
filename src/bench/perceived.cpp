#include "bench/perceived.hpp"

#include <algorithm>
#include <limits>

#include "bench/trial_world.hpp"
#include "common/assert.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

PerceivedResult run_perceived_bandwidth(backend::Backend& be,
                                        const PerceivedConfig& cfg) {
  PARTIB_ASSERT(cfg.total_bytes > 0 && cfg.user_partitions > 0);
  TwoRankChannel ch(be, cfg.world, cfg.total_bytes, cfg.user_partitions,
                    cfg.options);
  part::PsendRequest& send = *ch.send;
  part::PrecvRequest& recv = *ch.recv;
  sim::Rng rng(cfg.seed);

  PerceivedResult res;
  res.min_gbytes_per_s = std::numeric_limits<double>::max();
  res.wire_gbytes_per_s = cfg.world.nic.link_bytes_per_ns();  // B/ns == GB/s
  double sum = 0.0;
  int measured = 0;
  std::uint64_t wrs_at_measure_start = 0;

  for (int iter = 0; iter < cfg.warmup + cfg.iterations; ++iter) {
    const bool record = iter >= cfg.warmup;
    if (iter == cfg.warmup) wrs_at_measure_start = send.wrs_posted_total();
    PARTIB_ASSERT(ok(send.start()));
    PARTIB_ASSERT(ok(recv.start()));
    if (record && cfg.profiler != nullptr) {
      cfg.profiler->begin_round(be.now());
    }

    const sim::ArrivalPattern pattern = sim::jittered_many_before_one(
        cfg.user_partitions, cfg.compute, cfg.noise, cfg.jitter_per_thread,
        rng);
    Time last_pready = 0;
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      ch.world.rank(0).cpu().submit(pattern[i], [&, i, record] {
        last_pready = std::max(last_pready, be.now());
        if (record && cfg.profiler != nullptr) {
          cfg.profiler->record_pready(i, be.now());
        }
        PARTIB_ASSERT(ok(send.pready(i)));
      });
    }
    Time recv_done = -1;
    recv.when_complete([&] { recv_done = be.now(); });
    if (record && cfg.profiler != nullptr) {
      recv.set_arrival_hook([&cfg](std::size_t p, Time t) {
        cfg.profiler->record_arrival(p, t);
      });
    } else {
      recv.set_arrival_hook(nullptr);
    }
    be.run_until_idle();
    PARTIB_ASSERT(send.test() && recv.test());
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
      static_cast<double>(send.wrs_posted_total() - wrs_at_measure_start) /
      std::max(measured, 1);
  return res;
}

PerceivedResult run_perceived_bandwidth(const PerceivedConfig& cfg) {
  return on_des(run_perceived_bandwidth, cfg);
}

}  // namespace partib::bench

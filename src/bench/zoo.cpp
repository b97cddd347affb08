#include "bench/zoo.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "bench/trial_world.hpp"
#include "common/assert.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

const char* to_string(ZooShape shape) {
  switch (shape) {
    case ZooShape::kUniform: return "uniform";
    case ZooShape::kReverse: return "reverse";
    case ZooShape::kRandomPerm: return "random-perm";
    case ZooShape::kBurstyTail: return "bursty-tail";
    case ZooShape::kLqcdHalo4d: return "lqcd-halo4d";
    case ZooShape::kRegimeShift: return "regime-shift";
  }
  return "?";
}

namespace {

void ramp(std::size_t n, Duration spread, Duration* out) {
  const auto d = static_cast<Duration>(n > 1 ? n - 1 : 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (spread * static_cast<Duration>(i)) / d;
  }
}

void bursty_tail(std::size_t n, Duration spread, Duration* out) {
  // 7/8 of the partitions arrive in a tight early window; the remaining
  // index-contiguous tail lands in the final 10% of the spread.
  const std::size_t tail = std::max<std::size_t>(n / 8, 1);
  const std::size_t head = n - tail;
  const auto dh = static_cast<Duration>(head > 1 ? head - 1 : 1);
  const auto dt = static_cast<Duration>(tail > 1 ? tail - 1 : 1);
  for (std::size_t i = 0; i < head; ++i) {
    out[i] = ((spread / 50) * static_cast<Duration>(i)) / dh;
  }
  for (std::size_t i = head; i < n; ++i) {
    out[i] = (spread * 9) / 10 +
             ((spread / 10) * static_cast<Duration>(i - head)) / dt;
  }
}

}  // namespace

void zoo_arrivals(ZooShape shape, std::size_t n, Duration spread,
                  std::uint64_t seed, int epoch, int total_epochs,
                  Duration* out) {
  PARTIB_ASSERT(n >= 1 && spread >= 0);
  switch (shape) {
    case ZooShape::kUniform:
      ramp(n, spread, out);
      return;
    case ZooShape::kReverse: {
      ramp(n, spread, out);
      for (std::size_t i = 0; i < n; ++i) out[i] = spread - out[i];
      return;
    }
    case ZooShape::kRandomPerm: {
      // The permutation is fixed by the seed (stationary — learnable);
      // each epoch adds sub-quantum jitter so learning has to look
      // through noise, not just memorise one exact timeline.
      std::vector<std::uint32_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      sim::Rng prng(seed ^ 0x9E3779B97F4A7C15ULL);
      for (std::size_t i = n - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            prng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(perm[i], perm[j]);
      }
      const auto d = static_cast<Duration>(n > 1 ? n - 1 : 1);
      sim::Rng jrng(seed + 0x51ED0000u + static_cast<std::uint64_t>(epoch));
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = (spread * static_cast<Duration>(perm[i])) / d +
                 jrng.uniform_int(0, usec(8));
      }
      return;
    }
    case ZooShape::kBurstyTail:
      bursty_tail(n, spread, out);
      return;
    case ZooShape::kLqcdHalo4d: {
      // Eight halo direction blocks (4D stencil: +/- per dimension), each
      // finishing its pack at an irregular phase of the compute step, with
      // a small intra-block ramp.  Clusters are index-contiguous but their
      // arrival order is not monotonic in index — exactly where uniform
      // power-of-two groups straddle cluster boundaries.
      static constexpr double kPhase[8] = {0.00, 0.55, 0.12, 0.68,
                                           0.25, 0.80, 0.38, 0.95};
      const std::size_t blocks = std::min<std::size_t>(8, n);
      const std::size_t bs = n / blocks;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = std::min(i / bs, blocks - 1);
        const std::size_t j = i - b * bs;
        const std::size_t blen = b == blocks - 1 ? n - b * bs : bs;
        const auto db = static_cast<Duration>(blen > 1 ? blen - 1 : 1);
        out[i] =
            static_cast<Duration>(kPhase[b] * static_cast<double>(spread)) +
            ((spread / 40) * static_cast<Duration>(j)) / db;
      }
      return;
    }
    case ZooShape::kRegimeShift: {
      // Smooth ramp -> bursty tail at twice the spread -> nearly
      // simultaneous, by epoch thirds.  The first two regimes have
      // *different* learnable optima (a finer uniform split vs a cluster
      // cut around the straggler tail), so tracking the trace takes a
      // re-plan at each shift; the calm final regime is wire-bound — the
      // right reaction there is to keep whatever plan is standing.
      const int third = std::max(total_epochs / 3, 1);
      if (epoch < third) {
        ramp(n, spread, out);
      } else if (epoch < 2 * third) {
        bursty_tail(n, 2 * spread, out);
      } else {
        ramp(n, spread / 1000, out);
      }
      return;
    }
  }
  PARTIB_ASSERT(false);
}

ZooResult run_zoo(backend::Backend& be, const ZooConfig& cfg) {
  PARTIB_ASSERT(cfg.total_bytes > 0 && cfg.user_partitions > 0);
  PARTIB_ASSERT(cfg.epochs > cfg.warmup && cfg.warmup >= 0);
  const std::size_t n = cfg.user_partitions;
  TwoRankChannel ch(be, cfg.world, cfg.total_bytes, n, cfg.options);
  part::PsendRequest& send = *ch.send;
  part::PrecvRequest& recv = *ch.recv;
  PARTIB_ASSERT_MSG(!cfg.oracle || send.plan().learning,
                    "the oracle arm needs a learning plan to seed");

  ZooResult res;
  std::vector<Duration> truth(n);
  double warm_sum = 0.0;
  double all_sum = 0.0;
  double phase_sum[3] = {0.0, 0.0, 0.0};
  int phase_n[3] = {0, 0, 0};
  int warm_n = 0;
  std::uint64_t wrs_at_warm = 0;
  const int measured = cfg.epochs - cfg.warmup;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    zoo_arrivals(cfg.shape, n, cfg.spread, cfg.seed, epoch, cfg.epochs,
                 truth.data());
    if (cfg.oracle) {
      PARTIB_ASSERT(ok(send.seed_profile(truth)));
    }
    if (epoch == cfg.warmup) wrs_at_warm = send.wrs_posted_total();
    PARTIB_ASSERT(ok(send.start()));
    PARTIB_ASSERT(ok(recv.start()));

    const Time t0 = be.now();
    Time last_pready = 0;
    for (std::size_t i = 0; i < n; ++i) {
      be.engine().schedule_at(t0 + truth[i], [&be, &send, &last_pready, i] {
        last_pready = std::max(last_pready, be.now());
        PARTIB_ASSERT(ok(send.pready(i)));
      });
    }
    Time recv_done = -1;
    recv.when_complete([&be, &recv_done] { recv_done = be.now(); });
    be.run_until_idle();
    PARTIB_ASSERT(send.test() && recv.test());
    PARTIB_ASSERT(recv_done >= last_pready);

    const double gbps = static_cast<double>(cfg.total_bytes) /
                        static_cast<double>(recv_done - last_pready);
    all_sum += gbps;
    if (epoch >= cfg.warmup) {
      warm_sum += gbps;
      const int phase = std::min((epoch - cfg.warmup) * 3 / measured, 2);
      phase_sum[phase] += gbps;
      ++phase_n[phase];
      ++warm_n;
    }
  }

  res.warm_gbytes_per_s = warm_sum / std::max(warm_n, 1);
  res.all_gbytes_per_s = all_sum / std::max(cfg.epochs, 1);
  for (int p = 0; p < 3; ++p) {
    res.phase_gbytes_per_s[p] = phase_sum[p] / std::max(phase_n[p], 1);
  }
  res.final_tp = static_cast<std::int64_t>(send.transport_partitions());
  res.final_delta_us =
      send.plan().timer_based ? to_usec(send.plan().timer_delta) : 0.0;
  res.mean_wrs_per_epoch =
      static_cast<double>(send.wrs_posted_total() - wrs_at_warm) /
      std::max(warm_n, 1);
  res.replans_adopted = static_cast<std::int64_t>(send.replans_adopted());
  return res;
}

ZooResult run_zoo(const ZooConfig& cfg) { return on_des(run_zoo, cfg); }

}  // namespace partib::bench

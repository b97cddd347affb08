#include "bench/sweep.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/trial_world.hpp"
#include "common/assert.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

namespace {

constexpr int kTagEast = 0;   // west -> east traffic
constexpr int kTagSouth = 1;  // north -> south traffic

struct RankState {
  int x = 0;
  int y = 0;
  std::unique_ptr<part::PsendRequest> send_e;
  std::unique_ptr<part::PsendRequest> send_s;
  std::unique_ptr<part::PrecvRequest> recv_w;
  std::unique_ptr<part::PrecvRequest> recv_n;
  std::unique_ptr<sim::Rng> rng;

  int iter = 0;  // completed iterations
  int recvs_needed = 0;
  int sends_needed = 0;
  int recvs_done = 0;
  int sends_done = 0;
  std::size_t threads_done = 0;
  bool compute_done = false;
  /// Virtual time at which this rank completed the warmup iterations.
  Time warmup_done_at = -1;
};

struct SweepRun {
  const SweepConfig& cfg;
  backend::Backend& be;
  mpi::World& world;
  std::vector<RankState> ranks;
  int total_iters;
  int finished_ranks = 0;

  SweepRun(const SweepConfig& c, backend::Backend& b, mpi::World& w)
      : cfg(c), be(b), world(w),
        ranks(static_cast<std::size_t>(c.px * c.py)),
        total_iters(c.warmup + c.iterations) {}

  int rank_id(int x, int y) const { return y * cfg.px + x; }

  void begin_iteration(RankState& r) {
    r.recvs_done = 0;
    r.sends_done = 0;
    r.threads_done = 0;
    r.compute_done = false;
    auto on_recv = [this, &r] {
      if (++r.recvs_done == r.recvs_needed) start_compute(r);
    };
    if (r.recv_w) {
      PARTIB_ASSERT(ok(r.recv_w->start()));
      r.recv_w->when_complete(on_recv);
    }
    if (r.recv_n) {
      PARTIB_ASSERT(ok(r.recv_n->start()));
      r.recv_n->when_complete(on_recv);
    }
    auto on_send = [this, &r] {
      ++r.sends_done;
      maybe_finish_iteration(r);
    };
    if (r.send_e) {
      PARTIB_ASSERT(ok(r.send_e->start()));
      r.send_e->when_complete(on_send);
    }
    if (r.send_s) {
      PARTIB_ASSERT(ok(r.send_s->start()));
      r.send_s->when_complete(on_send);
    }
    if (r.recvs_needed == 0) start_compute(r);
  }

  void start_compute(RankState& r) {
    const sim::ArrivalPattern pattern = sim::jittered_many_before_one(
        cfg.threads, cfg.compute, cfg.noise, cfg.jitter_per_thread, *r.rng);
    mpi::Rank& mr = world.rank(rank_id(r.x, r.y));
    for (std::size_t i = 0; i < cfg.threads; ++i) {
      mr.cpu().submit(pattern[i], [this, &r, i] {
        if (r.send_e) PARTIB_ASSERT(ok(r.send_e->pready(i)));
        if (r.send_s) PARTIB_ASSERT(ok(r.send_s->pready(i)));
        if (++r.threads_done == cfg.threads) {
          r.compute_done = true;
          maybe_finish_iteration(r);
        }
      });
    }
  }

  void maybe_finish_iteration(RankState& r) {
    if (!r.compute_done || r.sends_done != r.sends_needed ||
        r.recvs_done != r.recvs_needed) {
      return;
    }
    ++r.iter;
    if (r.iter == cfg.warmup) r.warmup_done_at = be.now();
    if (r.iter < total_iters) {
      begin_iteration(r);
    } else {
      ++finished_ranks;
    }
  }
};

}  // namespace

SweepResult run_sweep(backend::Backend& be, const SweepConfig& cfg) {
  PARTIB_ASSERT(cfg.px >= 1 && cfg.py >= 1 && cfg.message_bytes > 0);
  mpi::World world(be, trial_world(cfg.world, cfg.px * cfg.py));

  SweepRun run(cfg, be, world);
  // Payload copies are disabled, so every channel shares one reservation
  // (MRs may overlap; only the timeline matters here).
  const TimelineBuffer payload(cfg.message_bytes);

  for (int y = 0; y < cfg.py; ++y) {
    for (int x = 0; x < cfg.px; ++x) {
      RankState& r = run.ranks[static_cast<std::size_t>(run.rank_id(x, y))];
      r.x = x;
      r.y = y;
      r.rng = std::make_unique<sim::Rng>(
          cfg.seed ^ (static_cast<std::uint64_t>(run.rank_id(x, y)) * 0x9E37u));
      mpi::Rank& mr = world.rank(run.rank_id(x, y));
      if (x + 1 < cfg.px) {
        PARTIB_ASSERT(ok(part::psend_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(x + 1, y), kTagEast, 0,
                                          cfg.options, &r.send_e)));
        ++r.sends_needed;
      }
      if (y + 1 < cfg.py) {
        PARTIB_ASSERT(ok(part::psend_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(x, y + 1), kTagSouth, 0,
                                          cfg.options, &r.send_s)));
        ++r.sends_needed;
      }
      if (x > 0) {
        PARTIB_ASSERT(ok(part::precv_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(x - 1, y), kTagEast, 0,
                                          cfg.options, &r.recv_w)));
        ++r.recvs_needed;
      }
      if (y > 0) {
        PARTIB_ASSERT(ok(part::precv_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(x, y - 1), kTagSouth, 0,
                                          cfg.options, &r.recv_n)));
        ++r.recvs_needed;
      }
    }
  }
  be.run_until_idle();  // settle every handshake before timing

  for (RankState& r : run.ranks) run.begin_iteration(r);
  be.run_until_idle();
  PARTIB_ASSERT(run.finished_ranks == cfg.px * cfg.py);

  Time warmup_done = 0;
  for (const RankState& r : run.ranks) {
    PARTIB_ASSERT(r.warmup_done_at >= 0 || cfg.warmup == 0);
    warmup_done = std::max(warmup_done, r.warmup_done_at);
  }

  SweepResult res;
  res.total_time = be.now() - warmup_done;
  // The paper subtracts "the computation time listed in each subfigure
  // caption" — the nominal compute only.  The noise-induced laggard delay
  // deliberately stays inside the communication time, which is why large
  // noise (400 us) dilutes every design's speedup in Fig 14c.
  res.compute_on_path = static_cast<Duration>(cfg.iterations) * cfg.compute;
  res.comm_time = res.total_time - res.compute_on_path;
  return res;
}

SweepResult run_sweep(const SweepConfig& cfg) { return on_des(run_sweep, cfg); }

}  // namespace partib::bench

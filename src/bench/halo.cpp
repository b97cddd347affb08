#include "bench/halo.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/trial_world.hpp"
#include "common/assert.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

namespace {

struct HaloRank {
  std::vector<std::unique_ptr<part::PsendRequest>> sends;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs;
  std::unique_ptr<sim::Rng> rng;
  int iter = 0;
  std::size_t pending = 0;  ///< outstanding sends + recvs this iteration
  std::size_t threads_done = 0;
  bool compute_done = false;
  Time warmup_done_at = -1;
};

struct HaloRun {
  const HaloConfig& cfg;
  backend::Backend& be;
  mpi::World& world;
  std::vector<HaloRank> ranks;
  int total_iters;
  int finished = 0;

  HaloRun(const HaloConfig& c, backend::Backend& b, mpi::World& w)
      : cfg(c), be(b), world(w),
        ranks(static_cast<std::size_t>(c.px * c.py)),
        total_iters(c.warmup + c.iterations) {}

  int rank_id(int x, int y) const { return y * cfg.px + x; }

  void begin_iteration(std::size_t r) {
    HaloRank& hr = ranks[r];
    hr.pending = hr.sends.size() + hr.recvs.size();
    hr.threads_done = 0;
    hr.compute_done = false;
    auto on_done = [this, r] {
      HaloRank& h = ranks[r];
      PARTIB_ASSERT(h.pending > 0);
      if (--h.pending == 0) maybe_finish(r);
    };
    for (auto& recv : hr.recvs) {
      PARTIB_ASSERT(ok(recv->start()));
      recv->when_complete(on_done);
    }
    for (auto& send : hr.sends) {
      PARTIB_ASSERT(ok(send->start()));
      send->when_complete(on_done);
    }
    start_compute(r);
  }

  void start_compute(std::size_t r) {
    const sim::ArrivalPattern pattern = sim::jittered_many_before_one(
        cfg.threads, cfg.compute, cfg.noise, cfg.jitter_per_thread,
        *ranks[r].rng);
    mpi::Rank& mr = world.rank(static_cast<int>(r));
    for (std::size_t i = 0; i < cfg.threads; ++i) {
      mr.cpu().submit(pattern[i], [this, r, i] {
        HaloRank& h = ranks[r];
        for (auto& send : h.sends) PARTIB_ASSERT(ok(send->pready(i)));
        if (++h.threads_done == cfg.threads) {
          h.compute_done = true;
          maybe_finish(r);
        }
      });
    }
  }

  void maybe_finish(std::size_t r) {
    HaloRank& hr = ranks[r];
    if (!hr.compute_done || hr.pending != 0) return;
    ++hr.iter;
    if (hr.iter == cfg.warmup) hr.warmup_done_at = be.now();
    if (hr.iter < total_iters) {
      begin_iteration(r);
    } else {
      ++finished;
    }
  }
};

}  // namespace

HaloResult run_halo(backend::Backend& be, const HaloConfig& cfg) {
  PARTIB_ASSERT(cfg.px >= 1 && cfg.py >= 1 && cfg.face_bytes > 0);
  mpi::World world(be, trial_world(cfg.world, cfg.px * cfg.py));
  HaloRun run(cfg, be, world);

  // Every face of every rank shares one reservation, as in the sweep.
  const TimelineBuffer payload(cfg.face_bytes);
  // Four directions, tagged by the sender's direction index; dx/dy pairs
  // and the tag the matching receiver listens on (opposite direction).
  const int dirs[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  for (int y = 0; y < cfg.py; ++y) {
    for (int x = 0; x < cfg.px; ++x) {
      const int id = run.rank_id(x, y);
      HaloRank& hr = run.ranks[static_cast<std::size_t>(id)];
      hr.rng = std::make_unique<sim::Rng>(
          cfg.seed ^ (static_cast<std::uint64_t>(id) * 0x517CC1B7ull));
      mpi::Rank& mr = world.rank(id);
      for (int d = 0; d < 4; ++d) {
        const int nx = x + dirs[d][0];
        const int ny = y + dirs[d][1];
        if (nx < 0 || nx >= cfg.px || ny < 0 || ny >= cfg.py) continue;
        std::unique_ptr<part::PsendRequest> send;
        std::unique_ptr<part::PrecvRequest> recv;
        PARTIB_ASSERT(ok(part::psend_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(nx, ny), d, 0,
                                          cfg.options, &send)));
        // The neighbour sends toward us with the opposite direction index.
        PARTIB_ASSERT(ok(part::precv_init(mr, payload.span(), cfg.threads,
                                          run.rank_id(nx, ny), d ^ 1, 0,
                                          cfg.options, &recv)));
        hr.sends.push_back(std::move(send));
        hr.recvs.push_back(std::move(recv));
      }
    }
  }
  be.run_until_idle();  // settle handshakes

  for (std::size_t r = 0; r < run.ranks.size(); ++r) run.begin_iteration(r);
  be.run_until_idle();
  PARTIB_ASSERT(run.finished == cfg.px * cfg.py);

  Time warmup_done = 0;
  for (const HaloRank& hr : run.ranks) {
    warmup_done = std::max(warmup_done, hr.warmup_done_at);
  }
  HaloResult res;
  res.total_time = be.now() - warmup_done;
  res.compute_on_path = static_cast<Duration>(cfg.iterations) * cfg.compute;
  res.comm_time = res.total_time - res.compute_on_path;
  return res;
}

HaloResult run_halo(const HaloConfig& cfg) { return on_des(run_halo, cfg); }

}  // namespace partib::bench

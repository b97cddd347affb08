// The world every trial form runs in.  A trial body takes
// `(backend::Backend&, cfg)`: it builds its mpi::World over that backend,
// drives it with run_until_idle(), reads now() and schedules on engine(),
// so one body runs over DES, shm, or a backend that observes it.  Trial
// worlds skip payload copies (payloads are TimelineBuffers, which fault
// on any touch), so the backend must be built with copy_data = false; the
// World constructor checks it.
#pragma once

#include <cstddef>
#include <memory>

#include "backend/des_backend.hpp"
#include "bench/timeline_buffer.hpp"
#include "common/assert.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"

namespace partib::bench {

/// `world` as a trial runs it: `ranks` ranks, no payload copies.
inline mpi::WorldOptions trial_world(mpi::WorldOptions world, int ranks) {
  world.ranks = ranks;
  world.copy_data = false;
  return world;
}

/// The `(cfg)` form of a trial: `run` over a fresh DES backend.
template <typename Config, typename Result>
Result on_des(Result (*run)(backend::Backend&, const Config&),
              const Config& cfg) {
  backend::DesBackend be(
      mpi::backend_config(trial_world(cfg.world, /*ranks=*/1)));
  return run(be, cfg);
}

/// The two-rank setup of the overhead, perceived and zoo forms: rank 0
/// sends `partitions` partitions of one TimelineBuffer to rank 1.  The
/// handshake is settled on return, outside any timed region.
struct TwoRankChannel {
  TwoRankChannel(backend::Backend& be, const mpi::WorldOptions& options,
                 std::size_t bytes, std::size_t partitions,
                 const part::Options& part_options)
      : world(be, trial_world(options, 2)), payload(bytes) {
    PARTIB_ASSERT(ok(part::psend_init(world.rank(0), payload.span(),
                                      partitions, 1, 0, 0, part_options,
                                      &send)));
    PARTIB_ASSERT(ok(part::precv_init(world.rank(1), payload.span(),
                                      partitions, 0, 0, 0, part_options,
                                      &recv)));
    be.run_until_idle();
  }

  mpi::World world;
  const TimelineBuffer payload;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

}  // namespace partib::bench

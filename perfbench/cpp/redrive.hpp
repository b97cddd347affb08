// Re-drives of the src/bench trial forms through mpi::World(Backend&).
//
// The trial forms (bench::zoo_trial, connscale_trial, sweep_trial) build
// their own sim::Engine, which no caller can observe.  Each re-drive here
// runs the same trial over a backend from the registry instead — "des"
// plain, or "traced-des" with a Probe on it — and must return the trial
// form's result bit for bit (same seed resolution, same call sequence;
// the only differences are site tags on this file's own events, which
// the engine does not order by, and untouched payload buffers, which a
// copy_data=false trial never reads).  A status the trial form would
// assert on throws RedriveError instead, so the caller can count it.
//
// The shm-rt channel lives here too: the same psend/precv calls over the
// real-time shm backend, with a memcmp after every round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/trial.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "probes.hpp"
#include "verbs/verbs.hpp"

namespace perfbench {

struct RedriveError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What a re-drive measures outside the Probe: host time of its public
/// calls, and the counters the library exposes after the trial.
struct TrialLayers {
  std::uint64_t world_count = 0;  ///< trials (worlds built)
  std::int64_t world_ns = 0;      ///< mpi::World construction
  std::int64_t init_ns = 0;       ///< psend_init + precv_init calls
  std::uint64_t inits = 0;
  std::int64_t handshake_ns = 0;  ///< drain after the inits
  std::int64_t layer_ns = 0;      ///< whole re-drive, set-up included
  std::uint64_t rounds = 0;
  partib::fabric::FabricStats fabric;
  // TraceSink sums over every traced op (virtual ns).
  std::uint64_t traced_ops = 0;
  std::int64_t wqe_wait_ns = 0;
  std::int64_t queue_wait_ns = 0;
  std::int64_t wire_ns = 0;
  partib::verbs::ResourceFootprint hot;  ///< rank 0 after the trial
  std::uint64_t establishments = 0;
  std::uint64_t recycles = 0;
  std::uint64_t wrs_posted = 0;
  std::uint64_t sender_rounds = 0;  ///< Σ rounds over every psend request
  std::uint64_t replans_adopted = 0;

  TrialLayers& operator+=(const TrialLayers& o);
};

/// `probe` null: plain re-drive over "des".  Otherwise over
/// "traced-des", with the aggregator wrapped and a TraceSink attached.
partib::bench::ZooResult redrive_zoo(const partib::bench::ZooConfig& cfg,
                                     Probe* probe, TrialLayers* layers);
partib::bench::ConnScaleResult redrive_connscale(
    const partib::bench::ConnScaleConfig& cfg, Probe* probe,
    TrialLayers* layers);
partib::bench::SweepResult redrive_sweep(const partib::bench::SweepConfig& cfg,
                                         Probe* probe, TrialLayers* layers);

/// One shm-rt channel, opened over backend `backend_name` ("shm",
/// "traced-shm" or, for the simulated twin, "des").
class ShmChannel {
 public:
  ShmChannel(const std::string& backend_name, std::size_t partition_bytes,
             Probe* probe);

  /// One round: fill the send buffer with a round-dependent pattern,
  /// Start both sides, Pready every partition, drain, memcmp.  Returns
  /// the backend-clock duration from Start to drained (real ns on shm,
  /// virtual ns on des), or -1 when the round failed its check.
  std::int64_t round(int index);

  std::size_t round_bytes() const { return sbuf_.size(); }
  /// Host time of the set-up calls (world, inits, handshake).
  const TrialLayers& layers() const { return layers_; }
  /// layers() plus the library's counters after the rounds so far.
  TrialLayers collect();

 private:
  Probe* probe_;
  TrialLayers layers_;
  std::uint64_t rounds_ = 0;
  // Members are destroyed bottom-up: the requests go before the buffers
  // and world they use, the world before its backend.
  std::unique_ptr<partib::backend::Backend> backend_;
  std::unique_ptr<partib::mpi::World> world_;
  std::vector<std::byte> sbuf_;
  std::vector<std::byte> rbuf_;
  std::unique_ptr<partib::part::PsendRequest> send_;
  std::unique_ptr<partib::part::PrecvRequest> recv_;
};

}  // namespace perfbench

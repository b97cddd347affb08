// The simulated MPI world: one Rank per fabric node.
//
// A Rank bundles everything a partitioned channel needs from its process:
// the verbs context and protection domain, a processor-sharing CPU (so
// oversubscribed thread counts behave like the paper's 128-threads-on-40-
// cores runs), the NIC doorbell (a FIFO resource — the lock whose
// contention aggregation relieves, §V-B2), and the init matcher.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "backend/backend.hpp"
#include "common/assert.hpp"
#include "common/fields.hpp"
#include "fabric/fault.hpp"
#include "fabric/nic_params.hpp"
#include "mpi/matcher.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "verbs/verbs.hpp"

namespace partib::mpi {

class ConnectionManager;

// Host-side calibration (DESIGN.md §2), fixed for every workload.

/// Niagara nodes have 40 cores (2 x 20-core Skylake).
inline constexpr int kCoresPerRank = 40;
/// Depth of each request's (and each connection manager's) completion queue.
inline constexpr int kCqDepth = 1 << 16;
/// Host CPU cost of the Pready fast path before any posting (atomic
/// add-and-fetch on the transport-partition flag array).
inline constexpr Duration kPreadyCpu = nsec(40);
/// Per-message runtime bookkeeping on the direct-verbs path (WR fill, flag
/// updates) — runs on the calling thread, outside any lock.
inline constexpr Duration kVerbsSwPerMsg = nsec(250);
/// DPU hand-off latency per message under WorldOptions::dpu_aggregation.
inline constexpr Duration kDpuPostOverhead = nsec(150);

struct WorldOptions {
  int ranks = 2;
  fabric::NicParams nic = fabric::NicParams::connectx5_edr();
  /// When false the fabric skips payload memcpy (benchmark mode: only the
  /// virtual timeline matters).  Integrity tests run with true.
  bool copy_data = true;

  /// Future-work §VI-A: offload aggregation onto a DPU.  When enabled,
  /// verbs-path posting work leaves the host entirely — the calling
  /// thread only flips the arrival flag; a per-rank DPU engine builds and
  /// rings the WR.  The host CPU is freed (visible under
  /// oversubscription), at the price of the DPU hand-off latency
  /// (kDpuPostOverhead).
  bool dpu_aggregation = false;

  /// Deterministic fault injection (fabric/fault.hpp, docs/FAULTS.md).
  /// All rates zero (the default) keeps the data path fault-free and
  /// allocation-identical to a build without the fault plane.
  fabric::FaultPlanConfig faults{};
};

/// `faults` post-dates the pinned trial fingerprints, so it is hashed only
/// when non-default, and the calibration constants keep their pinned
/// positions as Frozen entries (common/fields.hpp).
template <typename V, FieldsOf<WorldOptions> S>
void visit_fields(V&& v, S& w) {
  static const WorldOptions kDefault;
  v(w.ranks, w.nic, w.copy_data, Frozen{kCoresPerRank}, Frozen{kCqDepth},
    Frozen{kPreadyCpu}, Frozen{kVerbsSwPerMsg}, w.dpu_aggregation,
    Frozen{kDpuPostOverhead}, Defaulted{"faults", w.faults, kDefault.faults});
}

/// The backend configuration a world with `options` runs over: the NIC
/// model and payload-copy mode.  Faults stay in WorldOptions; the World
/// constructor installs them.
backend::Config backend_config(const WorldOptions& options);

class World;

class Rank {
 public:
  Rank(World& world, int id, fabric::NodeId node, verbs::Context& ctx);
  ~Rank();  // out of line: conn_ holds an incomplete ConnectionManager
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const { return id_; }
  fabric::NodeId node() const { return node_; }
  World& world() { return world_; }
  verbs::Context& context() { return ctx_; }
  verbs::Pd& pd() { return *pd_; }
  sim::ProcessorSharingCpu& cpu() { return cpu_; }
  sim::FifoResource& doorbell() { return doorbell_; }
  /// DPU aggregation engine (only when WorldOptions::dpu_aggregation).
  sim::FifoResource* dpu() { return dpu_.get(); }
  InitMatcher& matcher() { return matcher_; }

  /// The rank's shared connection manager (mpi/conn.hpp), created lazily —
  /// ranks running only dedicated per-channel resources never pay for the
  /// shared CQ/SRQ.
  ConnectionManager& connections();
  bool has_connections() const { return conn_ != nullptr; }

 private:
  World& world_;
  int id_;
  fabric::NodeId node_;
  verbs::Context& ctx_;
  verbs::Pd* pd_;
  sim::ProcessorSharingCpu cpu_;
  sim::FifoResource doorbell_;
  std::unique_ptr<sim::FifoResource> dpu_;
  InitMatcher matcher_;
  std::unique_ptr<ConnectionManager> conn_;
};

class World {
 public:
  /// Run over `backend`'s transport and engine (backend/backend.hpp).  The
  /// transport may be the DES fabric, the shm transport, or anything else
  /// satisfying backend::Transport; callers drive progress through
  /// Backend::run_until_idle / progress.  Build the backend from
  /// backend_config(options): `options.copy_data` must match the
  /// transport's, and a fault plan in `options.faults` is installed here.
  World(backend::Backend& backend, WorldOptions options);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int i) {
    PARTIB_ASSERT(i >= 0 && i < size());
    return *ranks_[static_cast<std::size_t>(i)];
  }

  sim::Engine& engine() { return engine_; }
  backend::Transport& fab() { return transport_; }
  verbs::Device& device() { return *device_; }
  const WorldOptions& options() const { return options_; }
  backend::Backend& backend() { return backend_; }

  /// Out-of-band control message between ranks; `deliver` runs on the
  /// destination after the control-plane latency.
  void send_control(int from, int to, std::function<void()> deliver);

 private:
  backend::Backend& backend_;
  sim::Engine& engine_;
  backend::Transport& transport_;
  WorldOptions options_;
  std::unique_ptr<verbs::Device> device_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace partib::mpi

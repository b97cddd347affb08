// Aggregation strategies: how user partitions map onto transport
// partitions (the paper's central design space, §IV).
//
// An Aggregator is consulted once per channel, at Psend_init time, and
// produces a Plan: how many transport partitions to use, across how many
// QPs, whether the timer-based dynamic refinement is active, and which
// software path the messages take (direct verbs for our designs, the
// UCX-like stack for the Open MPI `part_persist` baseline).
//
// Vocabulary (paper §IV-A): *user partitions* are what the application
// marks ready; *transport partitions* are what actually goes on the wire,
// one work request each.  Aggregation means multiple contiguous user
// partitions ride in a single WR — data is never staged in another buffer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "model/arrival_plan.hpp"
#include "model/ploggp.hpp"

namespace partib::agg {

enum class Path {
  kVerbs,    ///< direct InfiniBand verbs (this paper's designs)
  kUcxLike,  ///< Open MPI + UCX software path (the persistent baseline)
};

struct Plan {
  /// Number of transport partitions P; always a power of two in
  /// [1, user_partitions].  Groups are contiguous and aligned on
  /// (user_partitions / P) boundaries.
  std::size_t transport_partitions = 1;
  /// QPs to spread transport partitions across (group g uses QP g mod q).
  int qp_count = 1;
  /// Timer-based dynamic aggregation (§IV-D): the first thread of a group
  /// to arrive waits up to `timer_delta` for the rest, then flushes the
  /// maximal contiguous runs that have arrived.
  bool timer_based = false;
  Duration timer_delta = 0;
  Path path = Path::kVerbs;

  /// Arrival-learning mode (docs/ADAPTIVE.md), the online auto-tuning the
  /// paper's §IV-D defers to future work: the send request records
  /// per-partition Pready offsets into an ArrivalProfile, folds them into
  /// per-partition EWMAs, and at every Start re-plans transport-partition
  /// count, group *boundaries* (non-uniform but contiguous), and the timer
  /// delta from the learned arrival vector with `model_params` — adopting
  /// a candidate only on a predicted >= learn.hysteresis_epsilon win over
  /// the incumbent.  QPs are fixed at init.
  bool learning = false;
  model::ArrivalLearnConfig learn{};
  model::LogGPParams model_params{};

  /// Explicit contiguous group layout (group g covers
  /// [group_first[g], group_first[g] + group_count[g])).  Empty means the
  /// uniform transport_partitions layout.
  std::vector<std::size_t> group_first;
  std::vector<std::size_t> group_count;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Decide the plan for a channel of `user_partitions` partitions
  /// totalling `total_bytes`.
  virtual Plan plan(std::size_t user_partitions,
                    std::size_t total_bytes) const = 0;

  virtual const char* name() const = 0;

  /// Stable, parameter-complete identity string: two aggregators with the
  /// same describe() must produce identical plans for every input.  The
  /// experiment runner hashes this into trial fingerprints, so a strategy
  /// that gains a knob must extend its describe() in the same change.
  virtual std::string describe() const { return name(); }
};

/// Clamp a requested transport-partition count to the legal range
/// [1, user_partitions], preserving power-of-two-ness.
std::size_t clamp_transport_partitions(std::size_t requested,
                                       std::size_t user_partitions);

}  // namespace partib::agg

// Concrete aggregation strategies.
#pragma once

#include <cstddef>

#include "agg/aggregator.hpp"
#include "agg/tuning_table.hpp"
#include "model/arrival_plan.hpp"
#include "model/ploggp.hpp"

namespace partib::agg {

/// Open MPI `part_persist` + UCX baseline: one message per user partition,
/// one QP, UCX software path, no aggregation.  This is the comparator every
/// figure's speedups are computed against.
class PersistentBaseline final : public Aggregator {
 public:
  Plan plan(std::size_t user_partitions, std::size_t) const override;
  const char* name() const override { return "persistent"; }
};

/// Fixed transport-partition / QP counts (the knob sweeps of Figs 6-7 and
/// the values a tuning table stores).
class StaticAggregator final : public Aggregator {
 public:
  StaticAggregator(std::size_t transport_partitions, int qp_count);
  Plan plan(std::size_t user_partitions, std::size_t) const override;
  const char* name() const override { return "static"; }
  std::string describe() const override;

 private:
  std::size_t transport_partitions_;
  int qp_count_;
};

/// Brute-force tuning table (§IV-B): looks up (user partitions, message
/// size) in a pre-searched table.
class TuningTableAggregator final : public Aggregator {
 public:
  explicit TuningTableAggregator(TuningTable table);
  Plan plan(std::size_t user_partitions,
            std::size_t total_bytes) const override;
  const char* name() const override { return "tuning-table"; }
  std::string describe() const override;

  const TuningTable& table() const { return table_; }

 private:
  TuningTable table_;
};

/// PLogGP-model-driven aggregation (§IV-C): the optimizer picks the
/// transport-partition count; QPs are added only as needed to stay within
/// the per-QP outstanding-WR limit.
class PLogGPAggregator : public Aggregator {
 public:
  PLogGPAggregator(model::LogGPParams params,
                   model::OptimizerConfig cfg = {},
                   int max_wr_per_qp = 16);
  Plan plan(std::size_t user_partitions,
            std::size_t total_bytes) const override;
  const char* name() const override { return "ploggp"; }
  std::string describe() const override;

 protected:
  model::LogGPParams params_;
  model::OptimizerConfig cfg_;
  int max_wr_per_qp_;
};

/// Online arrival-learning aggregation (docs/ADAPTIVE.md) — the full
/// version of the auto-tuning the paper's §IV-D defers to future work.
/// Starts from the drain-aware PLogGP plan for an initial delay guess
/// with the timer refinement on; the runtime then learns the
/// per-partition arrival pattern (part/arrival_profile.hpp) and at every
/// Start re-plans transport-partition count, non-uniform contiguous group
/// boundaries, and the timer delta from the learned vector, with
/// hysteresis.  Single QP, so the receiver's worst-case receive-WR budget
/// never depends on the evolving plan.
class ArrivalLearningAggregator final : public Aggregator {
 public:
  explicit ArrivalLearningAggregator(model::LogGPParams params,
                                     Duration initial_delay_guess = msec(4),
                                     model::ArrivalLearnConfig cfg = {});
  Plan plan(std::size_t user_partitions,
            std::size_t total_bytes) const override;
  const char* name() const override { return "arrival-learning"; }
  std::string describe() const override;

  const model::ArrivalLearnConfig& config() const { return cfg_; }

 private:
  model::LogGPParams params_;
  Duration initial_delay_;
  model::ArrivalLearnConfig cfg_;
};

/// Timer-based PLogGP aggregation (§IV-D): the PLogGP plan plus the
/// arrival-aware delta timer.
class TimerPLogGPAggregator final : public PLogGPAggregator {
 public:
  TimerPLogGPAggregator(model::LogGPParams params, Duration delta,
                        model::OptimizerConfig cfg = {},
                        int max_wr_per_qp = 16);
  Plan plan(std::size_t user_partitions,
            std::size_t total_bytes) const override;
  const char* name() const override { return "timer-ploggp"; }
  std::string describe() const override;

  Duration delta() const { return delta_; }

 private:
  Duration delta_;
};

}  // namespace partib::agg

#include "agg/strategies.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace partib::agg {

namespace {

/// Canonical "L= o_s= o_r= g= G=" fragment shared by every model-driven
/// strategy's describe().  %.17g round-trips doubles exactly.
std::string loggp_str(const model::LogGPParams& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "L=%" PRId64 " o_s=%" PRId64 " o_r=%" PRId64 " g=%" PRId64
                " G=%.17g",
                static_cast<std::int64_t>(p.L),
                static_cast<std::int64_t>(p.o_s),
                static_cast<std::int64_t>(p.o_r),
                static_cast<std::int64_t>(p.g), p.G);
  return buf;
}

std::string optimizer_str(const model::OptimizerConfig& cfg) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "delay=%" PRId64 " maxtp=%zu",
                static_cast<std::int64_t>(cfg.delay),
                cfg.max_transport_partitions);
  return buf;
}

}  // namespace

std::size_t clamp_transport_partitions(std::size_t requested,
                                       std::size_t user_partitions) {
  PARTIB_ASSERT(is_pow2(user_partitions));
  const std::size_t p = prev_pow2(std::max<std::size_t>(requested, 1));
  return std::min(p, user_partitions);
}

// -- PersistentBaseline ------------------------------------------------------

Plan PersistentBaseline::plan(std::size_t user_partitions,
                              std::size_t) const {
  Plan p;
  p.transport_partitions = user_partitions;  // no aggregation
  p.qp_count = 1;                            // UCX: one RC channel per peer
  p.path = Path::kUcxLike;
  return p;
}

// -- StaticAggregator --------------------------------------------------------

StaticAggregator::StaticAggregator(std::size_t transport_partitions,
                                   int qp_count)
    : transport_partitions_(transport_partitions), qp_count_(qp_count) {
  PARTIB_ASSERT(is_pow2(transport_partitions) && qp_count >= 1);
}

Plan StaticAggregator::plan(std::size_t user_partitions, std::size_t) const {
  Plan p;
  p.transport_partitions =
      clamp_transport_partitions(transport_partitions_, user_partitions);
  p.qp_count = qp_count_;
  return p;
}

std::string StaticAggregator::describe() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "static tp=%zu qp=%d",
                transport_partitions_, qp_count_);
  return buf;
}

// -- TuningTableAggregator ---------------------------------------------------

TuningTableAggregator::TuningTableAggregator(TuningTable table)
    : table_(std::move(table)) {
  PARTIB_ASSERT_MSG(!table_.empty(), "tuning table must not be empty");
}

Plan TuningTableAggregator::plan(std::size_t user_partitions,
                                 std::size_t total_bytes) const {
  Plan p;
  auto entry = table_.lookup(user_partitions, total_bytes);
  if (!entry) entry = table_.lookup_nearest(user_partitions, total_bytes);
  if (entry) {
    p.transport_partitions = clamp_transport_partitions(
        entry->transport_partitions, user_partitions);
    p.qp_count = entry->qp_count;
  }
  return p;
}

std::string TuningTableAggregator::describe() const {
  // The whole table is the identity; hash its canonical CSV form rather
  // than embedding it (tables can be hundreds of rows).
  const std::string csv = table_.to_csv();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : csv) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "tuning-table rows=%zu csv=%016" PRIx64,
                table_.size(), h);
  return buf;
}

// -- PLogGPAggregator --------------------------------------------------------

PLogGPAggregator::PLogGPAggregator(model::LogGPParams params,
                                   model::OptimizerConfig cfg,
                                   int max_wr_per_qp)
    : params_(params), cfg_(cfg), max_wr_per_qp_(max_wr_per_qp) {
  PARTIB_ASSERT(max_wr_per_qp >= 1);
}

Plan PLogGPAggregator::plan(std::size_t user_partitions,
                            std::size_t total_bytes) const {
  Plan p;
  const std::size_t tp = model::optimal_transport_partitions(
      params_, total_bytes, user_partitions, cfg_);
  p.transport_partitions = clamp_transport_partitions(tp, user_partitions);
  // Only as many QPs as the outstanding-WR limit requires (§IV-A: multiple
  // QPs exist to respect the 16-concurrent-RDMA-WR hardware limit).
  p.qp_count = static_cast<int>(
      ceil_div(p.transport_partitions,
               static_cast<std::size_t>(max_wr_per_qp_)));
  return p;
}

std::string PLogGPAggregator::describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " maxwr=%d", max_wr_per_qp_);
  return std::string(name()) + " " + loggp_str(params_) + " " +
         optimizer_str(cfg_) + buf;
}

// -- ArrivalLearningAggregator -----------------------------------------------

namespace {

Duration clamp_delta(Duration v, Duration lo, Duration hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Canonical "alpha= eps= dmin= dmax= quantum= maxg=" fragment: every
/// ArrivalLearnConfig knob, so configs that learn under different
/// hyper-parameters never share a fingerprint or a derived seed.
std::string learn_str(const model::ArrivalLearnConfig& cfg) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "alpha=%.17g eps=%.17g dmin=%" PRId64 " dmax=%" PRId64
                " quantum=%" PRId64 " maxg=%zu",
                cfg.ewma_alpha, cfg.hysteresis_epsilon,
                static_cast<std::int64_t>(cfg.delta_min),
                static_cast<std::int64_t>(cfg.delta_max),
                static_cast<std::int64_t>(cfg.quantum), cfg.max_groups);
  return buf;
}

}  // namespace

ArrivalLearningAggregator::ArrivalLearningAggregator(
    model::LogGPParams params, Duration initial_delay_guess,
    model::ArrivalLearnConfig cfg)
    : params_(params), initial_delay_(initial_delay_guess), cfg_(cfg) {
  PARTIB_ASSERT(initial_delay_guess >= 0);
  PARTIB_ASSERT(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0);
  PARTIB_ASSERT(cfg.hysteresis_epsilon >= 0.0);
  PARTIB_ASSERT(cfg.delta_min >= 0 && cfg.delta_max >= cfg.delta_min);
  PARTIB_ASSERT(cfg.quantum >= 1);
  PARTIB_ASSERT(cfg.max_groups >= 1);
}

Plan ArrivalLearningAggregator::plan(std::size_t user_partitions,
                                     std::size_t total_bytes) const {
  Plan p;
  model::OptimizerConfig ocfg;
  ocfg.delay = initial_delay_;
  ocfg.max_transport_partitions = cfg_.max_groups;
  p.transport_partitions = clamp_transport_partitions(
      model::optimal_transport_partitions_with_drain(params_, total_bytes,
                                                     user_partitions, ocfg),
      user_partitions);
  p.qp_count = 1;  // see class comment
  p.timer_based = true;
  p.timer_delta = clamp_delta(initial_delay_, cfg_.delta_min, cfg_.delta_max);
  p.learning = true;
  p.learn = cfg_;
  p.model_params = params_;
  return p;
}

std::string ArrivalLearningAggregator::describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " delay0=%" PRId64,
                static_cast<std::int64_t>(initial_delay_));
  return std::string("arrival-learning/v1 ") + loggp_str(params_) + buf +
         " " + learn_str(cfg_);
}

// -- TimerPLogGPAggregator ---------------------------------------------------

TimerPLogGPAggregator::TimerPLogGPAggregator(model::LogGPParams params,
                                             Duration delta,
                                             model::OptimizerConfig cfg,
                                             int max_wr_per_qp)
    : PLogGPAggregator(params, cfg, max_wr_per_qp), delta_(delta) {
  PARTIB_ASSERT(delta >= 0);
}

Plan TimerPLogGPAggregator::plan(std::size_t user_partitions,
                                 std::size_t total_bytes) const {
  Plan p = PLogGPAggregator::plan(user_partitions, total_bytes);
  p.timer_based = true;
  p.timer_delta = delta_;
  return p;
}

std::string TimerPLogGPAggregator::describe() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), " delta=%" PRId64,
                static_cast<std::int64_t>(delta_));
  return PLogGPAggregator::describe() + buf;
}

}  // namespace partib::agg

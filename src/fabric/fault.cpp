#include "fabric/fault.hpp"

#include "common/assert.hpp"
#include "runner/fingerprint.hpp"
#include "sim/rng.hpp"

namespace partib::fabric {

std::uint64_t FaultPlanConfig::fingerprint() const {
  // Schema-tagged like the bench trial fingerprints.  A new field is
  // hashed once it is in the list (fault.hpp); bump the tag only when the
  // plan's semantics change under an unchanged config.
  return runner::fingerprint_fields("faultplan/v1", *this);
}

FaultPlan::FaultPlan(const FaultPlanConfig& cfg) : cfg_(cfg) {
  PARTIB_ASSERT(cfg.drop_rate >= 0 && cfg.delay_rate >= 0 &&
                cfg.rnr_rate >= 0 && cfg.retry_exc_rate >= 0 &&
                cfg.qp_flush_rate >= 0);
  PARTIB_ASSERT(cfg.drop_rate + cfg.delay_rate + cfg.rnr_rate +
                    cfg.retry_exc_rate + cfg.qp_flush_rate <=
                1.0);
  PARTIB_ASSERT(cfg.max_delay >= 1 && cfg.retransmit_delay >= 1 &&
                cfg.fail_latency >= 0);
  PARTIB_ASSERT(cfg.max_drops >= 1 && cfg.max_drops <= 255);
  seed_ = cfg.seed != 0 ? cfg.seed : runner::derive_seed(cfg.fingerprint());
  enabled_ = cfg.enabled();
}

FaultDecision FaultPlan::decide(std::uint64_t ordinal) const {
  FaultDecision d;
  if (!enabled_) return d;
  // Stateless per-ordinal stream: a splitmix64 walk keyed on
  // seed xor mixed ordinal.  Two draws cover every decision, and no draw
  // depends on any other ordinal's, so replayed prefixes agree.
  sim::SplitMix64 sm(seed_ ^ ((ordinal + 1) * 0xA24BAED4963EE407ULL));
  const double u =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;  // [0, 1)
  double acc = cfg_.drop_rate;
  if (u < acc) {
    d.kind = FaultKind::kDrop;
    d.drops = static_cast<std::uint8_t>(
        1 + sm.next() % static_cast<std::uint64_t>(cfg_.max_drops));
    return d;
  }
  acc += cfg_.delay_rate;
  if (u < acc) {
    d.kind = FaultKind::kDelay;
    d.delay = 1 + static_cast<Duration>(
                      sm.next() % static_cast<std::uint64_t>(cfg_.max_delay));
    return d;
  }
  acc += cfg_.rnr_rate;
  if (u < acc) {
    d.kind = FaultKind::kRnrNak;
    return d;
  }
  acc += cfg_.retry_exc_rate;
  if (u < acc) {
    d.kind = FaultKind::kRetryExceeded;
    return d;
  }
  acc += cfg_.qp_flush_rate;
  if (u < acc) d.kind = FaultKind::kQpFlush;
  return d;
}

}  // namespace partib::fabric

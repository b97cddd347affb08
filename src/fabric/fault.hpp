// Deterministic, seed-driven fault injection for the simulated fabric.
//
// Real IB fabrics lose packets, return RNR NAKs when the target has no
// receive WR posted, give up after the transport retry budget, and flush a
// QP's outstanding WQEs when it drops to the error state.  The fault plane
// models those events as *per-operation decisions* drawn from a pure hash
// of (plan seed, op ordinal), so a fault schedule is
//
//   * deterministic — the same plan over the same post sequence injects
//     the same faults at the same ordinals, which is what lets the fuzz
//     harness assert identical event fingerprints on seed replay;
//   * order-independent — decide(k) never consults decide(j), so replaying
//     a prefix of a run injects the same faults for the shared ordinals;
//   * free when disabled — a default-constructed config has every rate at
//     zero, the fabric skips the decide() call entirely, and the zero-fault
//     event timeline is bit-identical to a build without the plane.
//
// Seeding follows the runner's convention (runner/fingerprint.hpp): a
// zero seed derives one from the FNV-1a fingerprint of the whole config,
// so two trials with identical fault configs share a schedule, exactly
// like trial-config fingerprints.
#pragma once

#include <cstdint>

#include "common/fields.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace partib::fabric {

/// What the plan decided for one RDMA operation.
enum class FaultKind : std::uint8_t {
  kNone,           ///< deliver normally
  kDelay,          ///< deliver, but stall before the first byte
  kDrop,           ///< lose the wire transfer 1..max_drops times; the
                   ///< transport retransmits after retransmit_delay each time
  kRnrNak,         ///< RNR NAK retry budget exhausted: kRnrRetryExcErr
  kRetryExceeded,  ///< ACK timeout retry budget exhausted: kRetryExcErr
  kQpFlush,        ///< QP context drops to error: this WR and everything
                   ///< behind it completes with kWrFlushErr
};

/// Why an op failed, as reported to the verbs layer (RdmaOp::on_failed).
enum class OpFailure : std::uint8_t {
  kRetryExceeded,     ///< maps to WcStatus::kRetryExcErr
  kRnrRetryExceeded,  ///< maps to WcStatus::kRnrRetryExcErr
  kFlushed,           ///< maps to WcStatus::kWrFlushErr
};

constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kRnrNak: return "rnr_nak";
    case FaultKind::kRetryExceeded: return "retry_exceeded";
    case FaultKind::kQpFlush: return "qp_flush";
  }
  return "unknown";
}

constexpr const char* to_string(OpFailure f) {
  switch (f) {
    case OpFailure::kRetryExceeded: return "retry_exceeded";
    case OpFailure::kRnrRetryExceeded: return "rnr_retry_exceeded";
    case OpFailure::kFlushed: return "flushed";
  }
  return "unknown";
}

/// The per-operation decision: kind plus its parameter (only one of the
/// two is meaningful, keyed by kind).
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  Duration delay = 0;       ///< kDelay: stall before the first byte
  std::uint8_t drops = 0;   ///< kDrop: lost transmissions before success
};

/// Fault-plan configuration.  Rates are independent per-op probabilities;
/// their sum must be <= 1 (the remainder is the no-fault probability).
struct FaultPlanConfig {
  /// 0 = derive from fingerprint() (the runner's derive_seed convention).
  std::uint64_t seed = 0;

  double drop_rate = 0.0;
  double delay_rate = 0.0;
  double rnr_rate = 0.0;
  double retry_exc_rate = 0.0;
  double qp_flush_rate = 0.0;

  /// kDelay stalls are uniform in [1, max_delay] ns.
  Duration max_delay = usec(50);
  /// Retransmission backoff after a dropped transfer (RC ACK timeout).
  Duration retransmit_delay = usec(12);
  /// Virtual time the NIC burns before reporting kRnrNak/kRetryExceeded
  /// (the retry budget it walked through before giving up).
  Duration fail_latency = usec(40);
  /// kDrop loses the transfer 1..max_drops times before it goes through.
  int max_drops = 3;

  bool enabled() const {
    return drop_rate > 0 || delay_rate > 0 || rnr_rate > 0 ||
           retry_exc_rate > 0 || qp_flush_rate > 0;
  }

  /// FNV-1a content fingerprint over the field list below (the runner's
  /// generic walk: stable across processes and ASLR).
  std::uint64_t fingerprint() const;

  bool operator==(const FaultPlanConfig&) const = default;
};

template <typename V, FieldsOf<FaultPlanConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.seed, c.drop_rate, c.delay_rate, c.rnr_rate, c.retry_exc_rate,
    c.qp_flush_rate, c.max_delay, c.retransmit_delay, c.fail_latency,
    c.max_drops);
}

/// A resolved, immutable fault schedule.  decide(ordinal) is a pure
/// function of (resolved seed, ordinal).
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultPlanConfig& cfg);

  const FaultPlanConfig& config() const { return cfg_; }
  /// The seed actually in use (cfg.seed, or derived from the fingerprint).
  std::uint64_t seed() const { return seed_; }
  bool enabled() const { return enabled_; }

  /// Fault decision for the ordinal-th RDMA op posted to the fabric.
  FaultDecision decide(std::uint64_t ordinal) const;

 private:
  FaultPlanConfig cfg_;
  std::uint64_t seed_ = 0;
  bool enabled_ = false;
};

}  // namespace partib::fabric

// The Partitioned LogGP (PLogGP) model and the transport-partition
// optimizer built on it.
//
// PLogGP (Schonbein et al., ICPP'23) extends LogGP to a buffer split into P
// partitions.  The paper uses the *many-before-one* arrival scenario: all
// sender threads but one mark their partitions ready simultaneously and a
// single laggard is delayed by `delay` (e.g. 4 ms = 100 ms compute * 4%
// noise).  Partitioned communication can transmit the P-1 early transport
// partitions while the laggard still computes ("early-bird" transmission),
// so only the laggard's own transport partition remains on the critical
// path — but every extra transport partition also costs one more
// per-message overhead max(g, o_s, o_r).
//
// Completion time used by the optimizer (laggard's partition in group 0):
//
//   T(P) = delay + o_s + (K/P)*G + L + o_r + (P-1)*max(g, o_s, o_r)
//
// Minimising over real P gives P* = sqrt(K*G / max(g,o_s,o_r)); restricted
// to powers of two this reproduces the paper's Table I on the Niagara-like
// parameter set: the 1->2 boundary sits at K = 2c/G ~ 372 KiB, and each
// subsequent boundary is 4x the previous — exactly the paper's pattern of
// doubling the partition count every quadrupling of message size.
//
// `completion_time_with_drain` adds a refinement the simple form omits:
// when the early partitions cannot all be injected within `delay` (very
// large messages on a slow wire), the laggard's send queues behind them.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "model/loggp.hpp"

namespace partib::model {

struct PLogGPQuery {
  std::size_t message_bytes = 0;      ///< aggregate buffer size K
  std::size_t transport_partitions = 1;  ///< P
  Duration delay = 0;                 ///< laggard arrival delay
};

/// Headline PLogGP completion-time estimate (formula above).
Duration completion_time(const LogGPParams& p, const PLogGPQuery& q);

/// Refined estimate modelling wire occupancy of the early partitions:
/// the laggard's group starts at max(delay + o_s, o_s + (P-1)*max(g, kG)).
Duration completion_time_with_drain(const LogGPParams& p,
                                    const PLogGPQuery& q);

/// The paper's Fig 2 formula generalised to P back-to-back k-byte
/// messages with no delay:
///   o_s + P*G*(k-1) + (P-1)*max(g, o_s, o_r) + L + o_r
Duration back_to_back_time(const LogGPParams& p, std::size_t k,
                           std::size_t messages);

/// Classic LogGP single-message time: o_s + G*(k-1) + L + o_r.
Duration single_message_time(const LogGPParams& p, std::size_t k);

struct OptimizerConfig {
  /// Laggard delay fed to the model.  The paper follows prior work in
  /// using 4 ms (100 ms compute with 4% noise) as the representative value.
  Duration delay = msec(4);
  /// Upper bound on transport partitions regardless of user request
  /// (the paper's Table I tops out at 32).
  std::size_t max_transport_partitions = 32;
};

/// Optimal power-of-two transport-partition count for an aggregate message
/// of `message_bytes` with `user_partitions` user partitions.  The result
/// is in [1, min(user_partitions, cfg.max)] — the library never
/// disaggregates below one user partition per transport partition
/// (paper §IV-C).  Ties resolve to the smaller count.
std::size_t optimal_transport_partitions(const LogGPParams& p,
                                         std::size_t message_bytes,
                                         std::size_t user_partitions,
                                         const OptimizerConfig& cfg = {});

/// Same search over the drain-aware model.  Unlike the headline model —
/// where the laggard delay is an additive constant and cannot move the
/// optimum — here the delay bounds how many early partitions fit on the
/// wire, so the result genuinely depends on cfg.delay.  The
/// arrival-learning aggregator plans its initial layout with it from a
/// delay guess (the auto-tuning the paper's §IV-D defers to future work).
std::size_t optimal_transport_partitions_with_drain(
    const LogGPParams& p, std::size_t message_bytes,
    std::size_t user_partitions, const OptimizerConfig& cfg = {});

}  // namespace partib::model

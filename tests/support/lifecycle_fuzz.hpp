// Property-based lifecycle fuzzing under fault injection.
//
// One trial = one seed.  The seed derives everything: channel geometry,
// aggregator options, the retry budget, the fault-plan shape and rates,
// and the randomized pready/parrived/start/wait interleaving.  A trial
// runs the channel to quiescence and checks the three lifecycle
// invariants from docs/FAULTS.md:
//
//   1. no lost completions — every started round ends with test() true on
//      both sides, whether it succeeded or surfaced a structured error;
//   2. exact bytes on success — whenever neither side reports failure,
//      the received buffer matches the sent pattern byte for byte;
//   3. deterministic replay — the same seed reproduces the identical
//      DES event fingerprint (asserted by the caller re-running a trial).
//
// All randomness flows through sim::Rng(seed); nothing reads the clock,
// so a trial is a pure function of its seed.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "backend/des_backend.hpp"
#include "check/check.hpp"
#include "check/determinism.hpp"
#include "common/units.hpp"
#include "fabric/fault.hpp"
#include "sim/rng.hpp"
#include "support/test_world.hpp"

namespace partib::test {

// One entry per fault-plan shape the fuzzer must cover (acceptance:
// >= 5 shapes beyond "none").
enum class FaultShape : int {
  kNone = 0,
  kDrop,
  kDelay,
  kRnr,
  kRetryExceeded,
  kQpFlush,
  kMixed,
  /// Shared-resources mode: two sibling channels over one CQ + one SRQ,
  /// with QP-flush and retry-exhausted faults.  A fault on one chain must
  /// not lose or misattribute the sibling's completions.
  kSrqShared,
  /// Arrival-learning channel under delay/drop faults: the fault plan
  /// perturbs wire timing while the profile is learning and the
  /// Start-time replan is re-shaping the layout.  Extra rounds so the
  /// profile warms up and replans actually fire mid-fuzz; replay must
  /// still be bit-identical (learned state is a pure function of the
  /// seed-derived arrival pattern).
  kArrivalPerturbed,
};
inline constexpr int kFaultShapeCount = 9;

inline fabric::FaultPlanConfig make_fault_config(FaultShape shape,
                                                 sim::Rng& rng) {
  fabric::FaultPlanConfig f;
  // Never 0: zero would re-derive from the config fingerprint, which is
  // fine but makes two trials with equal rates share a schedule.
  f.seed = rng.next_u64() | 1;
  f.max_delay = usec(rng.uniform_int(1, 80));
  f.retransmit_delay = usec(rng.uniform_int(4, 20));
  f.fail_latency = usec(rng.uniform_int(1, 60));
  f.max_drops = static_cast<int>(rng.uniform_int(1, 4));
  switch (shape) {
    case FaultShape::kNone:
      break;
    case FaultShape::kDrop:
      f.drop_rate = rng.uniform(0.05, 0.5);
      break;
    case FaultShape::kDelay:
      f.delay_rate = rng.uniform(0.05, 0.5);
      break;
    case FaultShape::kRnr:
      f.rnr_rate = rng.uniform(0.05, 0.4);
      break;
    case FaultShape::kRetryExceeded:
      f.retry_exc_rate = rng.uniform(0.05, 0.4);
      break;
    case FaultShape::kQpFlush:
      f.qp_flush_rate = rng.uniform(0.05, 0.3);
      break;
    case FaultShape::kMixed:
      f.drop_rate = rng.uniform(0.0, 0.15);
      f.delay_rate = rng.uniform(0.0, 0.15);
      f.rnr_rate = rng.uniform(0.0, 0.1);
      f.retry_exc_rate = rng.uniform(0.0, 0.1);
      f.qp_flush_rate = rng.uniform(0.0, 0.1);
      break;
    case FaultShape::kSrqShared:
      // Modest rates so the corpus covers both full recovery and
      // structured failure of one sibling while the other survives.
      f.qp_flush_rate = rng.uniform(0.02, 0.2);
      f.retry_exc_rate = rng.uniform(0.02, 0.2);
      break;
    case FaultShape::kArrivalPerturbed:
      // Timing-perturbing faults: delays skew the completion times the
      // learner observes; occasional drops add retransmit jitter on top.
      f.delay_rate = rng.uniform(0.05, 0.4);
      f.drop_rate = rng.uniform(0.0, 0.15);
      break;
  }
  return f;
}

inline part::Options random_fuzz_options(sim::Rng& rng) {
  part::Options o;
  switch (rng.uniform_int(0, 3)) {
    case 0: o = persistent_options(); break;
    case 1: o = ploggp_options(); break;
    case 2: o = timer_options(usec(rng.uniform_int(1, 200))); break;
    default:
      o = static_options(std::size_t{1} << rng.uniform_int(6, 12),
                         static_cast<int>(rng.uniform_int(1, 4)));
      break;
  }
  // Fuzz the recovery knobs too: tight budgets make budget exhaustion
  // reachable, generous ones make recovery-to-success reachable.
  o.max_send_retries = static_cast<int>(rng.uniform_int(1, 8));
  o.retry_backoff = usec(rng.uniform_int(1, 16));
  return o;
}

/// kArrivalPerturbed options: an arrival-learning channel with fuzzed
/// learning knobs, so the fault-perturbed profile drives real replans.
inline part::Options perturbed_learning_options(sim::Rng& rng) {
  model::ArrivalLearnConfig cfg;
  cfg.ewma_alpha = rng.uniform(0.2, 1.0);
  cfg.hysteresis_epsilon = rng.uniform(0.0, 0.1);
  cfg.quantum = usec(rng.uniform_int(8, 128));
  part::Options o =
      learning_options(usec(rng.uniform_int(50, 4000)), cfg);
  o.max_send_retries = static_cast<int>(rng.uniform_int(2, 8));
  o.retry_backoff = usec(rng.uniform_int(1, 16));
  return o;
}

/// kSrqShared trial body: two sibling channels (ranks 1 and 2 -> rank 0)
/// in shared-resources mode, so the hot rank drains both chains through
/// the connection manager's single CQ and stages receives in its SRQ.
/// The invariants are the standard three, held PER SIBLING: a QP-flush or
/// retry-exhausted fault on one chain must not strand the other's
/// completions (quiescence), deliver them to the wrong channel (exact
/// bytes), or perturb replay (fingerprint).
struct SharedSiblingFixture {
  backend::DesBackend des;
  sim::Engine& engine;
  std::unique_ptr<mpi::World> world;
  std::vector<std::byte> sbuf[2];
  std::vector<std::byte> rbuf[2];
  std::unique_ptr<part::PsendRequest> send[2];
  std::unique_ptr<part::PrecvRequest> recv[2];

  SharedSiblingFixture(std::size_t bytes, std::size_t partitions,
                       part::Options opts, mpi::WorldOptions wopts)
      : des(mpi::backend_config(wopts)), engine(des.engine()) {
    opts.shared_resources = true;
    wopts.ranks = 3;
    world = std::make_unique<mpi::World>(des, wopts);
    for (int c = 0; c < 2; ++c) {
      sbuf[c].resize(bytes);
      rbuf[c].resize(bytes);
      PARTIB_ASSERT(partib::ok(part::psend_init(world->rank(c + 1), sbuf[c],
                                                partitions, /*dst=*/0,
                                                /*tag=*/c, /*comm=*/0, opts,
                                                &send[c])));
      PARTIB_ASSERT(partib::ok(part::precv_init(world->rank(0), rbuf[c],
                                                partitions, /*src=*/c + 1,
                                                /*tag=*/c, /*comm=*/0, opts,
                                                &recv[c])));
    }
  }
};

struct LifecycleTrialResult {
  std::uint64_t fingerprint = 0;  ///< DES event-stream hash of the trial
  std::uint64_t events = 0;
  FaultShape shape = FaultShape::kNone;
  bool channel_failed = false;  ///< budget exhausted -> structured error
  std::uint64_t faults_injected = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t failed_ops = 0;
};

inline void run_srq_shared_trial(std::uint64_t seed, sim::Rng& rng,
                                 std::size_t partitions, std::size_t psize,
                                 int rounds, const mpi::WorldOptions& wopts,
                                 LifecycleTrialResult* result) {
  SharedSiblingFixture fx(partitions * psize, partitions,
                          random_fuzz_options(rng), wopts);
  check::DeterminismAuditor auditor;  // after fx: detaches before it dies
  auditor.attach(fx.engine);

  for (int round = 1; round <= rounds; ++round) {
    bool any_active = false;
    for (int c = 0; c < 2; ++c) {
      if (fx.send[c]->failed()) continue;  // sibling may still be healthy
      fill_pattern(fx.sbuf[c], round * 2 + c);
      const Status s_start = fx.send[c]->start();
      const Status r_start = fx.recv[c]->start();
      EXPECT_TRUE(ok(s_start) || s_start == Status::kRemoteError) << seed;
      EXPECT_TRUE(ok(r_start) || r_start == Status::kRemoteError) << seed;
      if (!ok(s_start) || !ok(r_start)) continue;
      any_active = true;

      const Duration window = usec(rng.uniform_int(1, 1500));
      const Time t0 = fx.engine.now();
      part::PsendRequest* sp = fx.send[c].get();
      for (std::size_t i = 0; i < partitions; ++i) {
        fx.engine.schedule_at(t0 + rng.uniform_int(0, window),
                              [sp, i, seed] {
                                const Status st = sp->pready(i);
                                EXPECT_TRUE(ok(st) ||
                                            st == Status::kRemoteError)
                                    << seed;
                              });
      }
    }
    if (!any_active) break;
    fx.engine.run();

    for (int c = 0; c < 2; ++c) {
      // Invariant 1, per sibling: quiescence means BOTH chains observably
      // finished — one chain's fault must not strand or misroute the
      // other's CQEs through the shared CQ/SRQ.
      EXPECT_TRUE(fx.send[c]->test()) << seed << " sibling " << c;
      EXPECT_TRUE(fx.recv[c]->test()) << seed << " sibling " << c;
      EXPECT_EQ(fx.send[c]->failed(), fx.recv[c]->failed())
          << seed << " sibling " << c;
      // Invariant 2, per sibling: exact bytes whenever THIS chain
      // succeeded, regardless of what happened to the other one.
      if (!fx.send[c]->failed()) {
        EXPECT_TRUE(buffers_equal(fx.sbuf[c], fx.rbuf[c]))
            << seed << " sibling " << c;
        EXPECT_EQ(fx.send[c]->status(), Status::kOk)
            << seed << " sibling " << c;
      }
    }
  }

  result->channel_failed = fx.send[0]->failed() || fx.send[1]->failed();
  if (check::hooks_compiled_in()) {
    if (result->channel_failed) {
      EXPECT_GE(check::count_rule("part.retry_exhausted"), 1u) << seed;
      EXPECT_EQ(check::violation_count(),
                check::count_rule("part.retry_exhausted"))
          << seed;
    } else {
      EXPECT_EQ(check::violation_count(), 0u) << seed;
    }
  }

  const fabric::FabricStats& stats = fx.world->fab().stats();
  result->faults_injected = stats.faults_injected;
  result->retransmits = stats.retransmits;
  result->failed_ops = stats.failed_ops;
  result->fingerprint = auditor.fingerprint();
  result->events = auditor.events_observed();
}

inline LifecycleTrialResult run_lifecycle_trial(std::uint64_t seed) {
  LifecycleTrialResult result;
  sim::Rng rng(seed);

  // Worlds share one process: clear the checker's thread-local shadow of
  // the previous trial (see check/example_diag_test.cpp) and count
  // silently so expected rule reports don't flood CI logs.
  check::reset();
  check::ScopedPolicy policy(check::Policy::kCount);

  const std::size_t partitions = std::size_t{1} << rng.uniform_int(0, 6);
  const std::size_t psize = std::size_t{1} << rng.uniform_int(6, 12);
  int rounds = static_cast<int>(rng.uniform_int(1, 3));
  result.shape = static_cast<FaultShape>(
      rng.uniform_int(0, kFaultShapeCount - 1));
  // Learning needs epochs: enough rounds to fold the profile and reach
  // the Start-time replan while faults are perturbing arrivals.
  if (result.shape == FaultShape::kArrivalPerturbed) rounds += 3;

  mpi::WorldOptions wopts;
  wopts.faults = make_fault_config(result.shape, rng);

  if (result.shape == FaultShape::kSrqShared) {
    run_srq_shared_trial(seed, rng, partitions, psize, rounds, wopts,
                         &result);
    return result;
  }

  ChannelFixture fx(partitions * psize, partitions,
                    result.shape == FaultShape::kArrivalPerturbed
                        ? perturbed_learning_options(rng)
                        : random_fuzz_options(rng),
                    wopts);
  check::DeterminismAuditor auditor;  // after fx: detaches before it dies
  auditor.attach(fx.engine);

  for (int round = 1; round <= rounds; ++round) {
    if (fx.send->failed()) break;
    fill_pattern(fx.sbuf, round);
    const Status s_start = fx.send->start();
    const Status r_start = fx.recv->start();
    EXPECT_TRUE(ok(s_start) || s_start == Status::kRemoteError) << seed;
    EXPECT_TRUE(ok(r_start) || r_start == Status::kRemoteError) << seed;
    if (!ok(s_start) || !ok(r_start)) break;

    // Random interleaving: every partition made ready exactly once at a
    // random time in a random-scale window; parrived polled mid-flight.
    const Duration window = usec(rng.uniform_int(1, 1500));
    std::vector<std::size_t> order(partitions);
    for (std::size_t i = 0; i < partitions; ++i) order[i] = i;
    for (std::size_t i = partitions; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    const Time t0 = fx.engine.now();
    for (std::size_t i : order) {
      fx.engine.schedule_at(t0 + rng.uniform_int(0, window), [&fx, i, seed] {
        // A pready racing the channel failure may see the structured
        // error; anything else is a lifecycle bug.
        const Status st = fx.send->pready(i);
        EXPECT_TRUE(ok(st) || st == Status::kRemoteError) << seed;
      });
    }
    fx.engine.schedule_at(t0 + window / 2, [&fx, partitions] {
      for (std::size_t i = 0; i < partitions; ++i) {
        (void)fx.recv->parrived(i);  // must never crash, failed or not
      }
    });
    fx.engine.run();

    // Invariant 1: no lost completions — quiescence means both sides
    // observably finished, by success or by structured failure.
    EXPECT_TRUE(fx.send->test()) << seed;
    EXPECT_TRUE(fx.recv->test()) << seed;
    EXPECT_EQ(fx.send->failed(), fx.recv->failed()) << seed;

    // Invariant 2: exact bytes whenever the round reports success.
    if (!fx.send->failed()) {
      EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << seed;
      EXPECT_EQ(fx.send->status(), Status::kOk) << seed;
    } else {
      EXPECT_EQ(fx.send->status(), Status::kRemoteError) << seed;
      EXPECT_EQ(fx.recv->status(), Status::kRemoteError) << seed;
    }
  }

  result.channel_failed = fx.send->failed();
  // A failed channel must have reported its rule; a healthy fuzz run must
  // not have tripped any other checker rule.
  if (check::hooks_compiled_in()) {
    if (result.channel_failed) {
      EXPECT_GE(check::count_rule("part.retry_exhausted"), 1u) << seed;
      EXPECT_EQ(check::violation_count(),
                check::count_rule("part.retry_exhausted"))
          << seed;
    } else {
      EXPECT_EQ(check::violation_count(), 0u) << seed;
    }
  }

  const fabric::FabricStats& stats = fx.world->fab().stats();
  result.faults_injected = stats.faults_injected;
  result.retransmits = stats.retransmits;
  result.failed_ops = stats.failed_ops;
  result.fingerprint = auditor.fingerprint();
  result.events = auditor.events_observed();
  return result;
}

/// Aggregators whose plan is a pure function of geometry (no timers, no
/// learned arrival profile): on the real-time shm backend these are the
/// ones whose post ordinals — and therefore the seed-driven fault
/// schedule — replay exactly.
inline part::Options shm_fuzz_options(sim::Rng& rng) {
  part::Options o;
  switch (rng.uniform_int(0, 2)) {
    case 0: o = persistent_options(); break;
    case 1: o = ploggp_options(); break;
    default:
      o = static_options(std::size_t{1} << rng.uniform_int(6, 12),
                         static_cast<int>(rng.uniform_int(1, 4)));
      break;
  }
  o.max_send_retries = static_cast<int>(rng.uniform_int(1, 8));
  o.retry_backoff = usec(rng.uniform_int(1, 16));
  return o;
}

/// One fuzz trial on the shm backend.  Same seed-derived geometry/fault
/// recipe as the DES trial, but with the interleaving made causally
/// deterministic (preadys fire immediately, in index order, from the
/// single driver thread) because real-time scheduling offsets would not
/// replay.  What MUST replay on shm is the outcome tuple — channel_failed,
/// faults_injected, retransmits, failed_ops — since FaultPlan::decide()
/// consumes post ordinals, not wall-clock time.  fingerprint/events stay 0:
/// the DES event-stream auditor has no meaning over a slaved clock.
///
/// Invariants checked per round (docs/FAULTS.md, shm column):
///   1. no lost completions — test() true on both sides at quiescence;
///   2. exact bytes on success;
///   3. structured failure symmetry + the part.retry_exhausted rule.
inline LifecycleTrialResult run_shm_lifecycle_trial(std::uint64_t seed) {
  LifecycleTrialResult result;
  sim::Rng rng(seed);

  check::reset();
  check::ScopedPolicy policy(check::Policy::kCount);

  const std::size_t partitions = std::size_t{1} << rng.uniform_int(0, 6);
  const std::size_t psize = std::size_t{1} << rng.uniform_int(6, 12);
  const int rounds = static_cast<int>(rng.uniform_int(1, 3));
  // Shapes kNone..kMixed; the two DES-specific composites (SRQ siblings,
  // arrival learning) are out of scope — their behaviour depends on
  // observed *times*, which the shm backend does not replay.
  result.shape = static_cast<FaultShape>(
      rng.uniform_int(0, static_cast<int>(FaultShape::kMixed)));

  mpi::WorldOptions wopts;
  wopts.faults = make_fault_config(result.shape, rng);

  const std::string prev_backend = current_backend();
  current_backend() = "shm";
  {
    ChannelFixture fx(partitions * psize, partitions, shm_fuzz_options(rng),
                      wopts);
    for (int round = 1; round <= rounds; ++round) {
      if (fx.send->failed()) break;
      fill_pattern(fx.sbuf, round);
      const Status s_start = fx.send->start();
      const Status r_start = fx.recv->start();
      EXPECT_TRUE(ok(s_start) || s_start == Status::kRemoteError) << seed;
      EXPECT_TRUE(ok(r_start) || r_start == Status::kRemoteError) << seed;
      if (!ok(s_start) || !ok(r_start)) break;

      for (std::size_t i = 0; i < partitions; ++i) {
        const Status st = fx.send->pready(i);
        EXPECT_TRUE(ok(st) || st == Status::kRemoteError) << seed;
        (void)fx.recv->parrived(i);  // mid-flight poll must never crash
      }
      fx.drive();

      EXPECT_TRUE(fx.send->test()) << seed;
      EXPECT_TRUE(fx.recv->test()) << seed;
      EXPECT_EQ(fx.send->failed(), fx.recv->failed()) << seed;
      if (!fx.send->failed()) {
        EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << seed;
        EXPECT_EQ(fx.send->status(), Status::kOk) << seed;
      } else {
        EXPECT_EQ(fx.send->status(), Status::kRemoteError) << seed;
        EXPECT_EQ(fx.recv->status(), Status::kRemoteError) << seed;
      }
    }

    result.channel_failed = fx.send->failed();
    if (check::hooks_compiled_in()) {
      if (result.channel_failed) {
        EXPECT_GE(check::count_rule("part.retry_exhausted"), 1u) << seed;
        EXPECT_EQ(check::violation_count(),
                  check::count_rule("part.retry_exhausted"))
            << seed;
      } else {
        EXPECT_EQ(check::violation_count(), 0u) << seed;
      }
    }

    const fabric::FabricStats& stats = fx.world->fab().stats();
    result.faults_injected = stats.faults_injected;
    result.retransmits = stats.retransmits;
    result.failed_ops = stats.failed_ops;
  }
  current_backend() = prev_backend;
  check::reset();
  return result;
}

}  // namespace partib::test

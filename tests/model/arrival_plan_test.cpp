// Arrival-vector planner and per-partition EWMA profile: the model half
// of online arrival-learning aggregation (docs/ADAPTIVE.md).  These pin
// the properties the sender's Start-time replan leans on: determinism,
// contiguous cover, quantization invariance, the delta controller's
// window math and clamps, bounded EWMA reaction to regime shifts, and
// the no-flap property of the hysteresis comparison.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "model/arrival_plan.hpp"
#include "model/loggp.hpp"
#include "part/arrival_profile.hpp"

namespace partib::test {
namespace {

constexpr std::size_t kParts = 64;
constexpr std::size_t kBytes = 64 * MiB;

struct PlanOut {
  model::ArrivalPlanResult r;
  std::size_t first[kParts];
  std::size_t count[kParts];
};

PlanOut plan(const std::vector<Duration>& arrival,
             const model::ArrivalLearnConfig& cfg = {}) {
  const auto p = model::LogGPParams::niagara_mpi_measured();
  model::ArrivalPlanScratch scratch;
  scratch.reserve(arrival.size());
  PlanOut out;
  out.r = model::plan_from_arrivals(p, kBytes, arrival.data(),
                                    arrival.size(), cfg, out.first,
                                    out.count, scratch);
  return out;
}

std::vector<Duration> ramp(std::size_t n, Duration spread) {
  if (n == 1) return {0};  // one partition: no spread to interpolate
  std::vector<Duration> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (spread * static_cast<Duration>(i)) /
           static_cast<Duration>(n - 1);
  }
  return a;
}

std::vector<Duration> bursty(std::size_t n, Duration spread) {
  std::vector<Duration> a(n);
  const std::size_t head = n - n / 8;
  for (std::size_t i = 0; i < head; ++i) {
    a[i] = (usec(120) * static_cast<Duration>(i)) /
           static_cast<Duration>(head - 1);
  }
  for (std::size_t i = head; i < n; ++i) {
    a[i] = spread + (usec(600) * static_cast<Duration>(i - head)) /
                        static_cast<Duration>(n - head - 1);
  }
  return a;
}

void expect_contiguous_cover(const PlanOut& out, std::size_t n,
                             std::size_t cap) {
  ASSERT_GE(out.r.groups, 1u);
  EXPECT_LE(out.r.groups, cap);
  std::size_t next = 0;
  for (std::size_t g = 0; g < out.r.groups; ++g) {
    EXPECT_EQ(out.first[g], next);
    EXPECT_GE(out.count[g], 1u);
    next += out.count[g];
  }
  EXPECT_EQ(next, n);
}

TEST(ArrivalPlan, DeterministicAndSelfConsistent) {
  const auto arrival = bursty(kParts, msec(5));
  const PlanOut a = plan(arrival);
  const PlanOut b = plan(arrival);
  EXPECT_EQ(a.r.groups, b.r.groups);
  EXPECT_EQ(a.r.delta, b.r.delta);
  EXPECT_EQ(a.r.predicted, b.r.predicted);
  for (std::size_t g = 0; g < a.r.groups; ++g) {
    EXPECT_EQ(a.first[g], b.first[g]);
    EXPECT_EQ(a.count[g], b.count[g]);
  }
  // The returned prediction is the same model re-run on the returned
  // layout — the planner's choice and the sender's hysteresis compare
  // must agree on what a plan costs.
  const auto p = model::LogGPParams::niagara_mpi_measured();
  model::ArrivalPlanScratch scratch;
  scratch.reserve(kParts);
  EXPECT_EQ(model::predict_grouped_completion(p, kBytes / kParts,
                                              arrival.data(), a.first,
                                              a.count, a.r.groups, a.r.delta,
                                              scratch),
            a.r.predicted);
}

TEST(ArrivalPlan, ContiguousCoverAcrossShapes) {
  const model::ArrivalLearnConfig cfg;
  for (const auto& arrival :
       {ramp(kParts, msec(6)), ramp(kParts, usec(3)), bursty(kParts, msec(5)),
        ramp(kParts, 0)}) {
    expect_contiguous_cover(plan(arrival, cfg), kParts, cfg.max_groups);
  }
  // Degenerate sizes: one partition, and fewer partitions than the cap.
  expect_contiguous_cover(plan(ramp(1, 0), cfg), 1, cfg.max_groups);
  expect_contiguous_cover(plan(ramp(3, msec(2)), cfg), 3, cfg.max_groups);
}

TEST(ArrivalPlan, SubQuantumJitterNeverChangesThePlan) {
  // Plans are a function of the quantized pattern: nudging every arrival
  // by less than one grid step must reproduce the identical layout —
  // this is what makes learned plans producer-thread-count invariant.
  model::ArrivalLearnConfig cfg;
  cfg.quantum = usec(64);
  const auto base = bursty(kParts, msec(5));
  const PlanOut a = plan(base, cfg);
  auto jittered = base;
  for (std::size_t i = 0; i < kParts; ++i) {
    // Stay inside the arrival's own grid cell, not just within a quantum.
    const Duration cell = (base[i] / cfg.quantum) * cfg.quantum;
    jittered[i] = cell + (static_cast<Duration>(i * 977) % cfg.quantum);
  }
  const PlanOut b = plan(jittered, cfg);
  EXPECT_EQ(a.r.groups, b.r.groups);
  EXPECT_EQ(a.r.delta, b.r.delta);
  for (std::size_t g = 0; g < a.r.groups; ++g) {
    EXPECT_EQ(a.first[g], b.first[g]);
    EXPECT_EQ(a.count[g], b.count[g]);
  }
}

TEST(ArrivalPlan, BurstyTailGetsABoundaryAtTheCluster) {
  // 56 early partitions, 8 stragglers 5 ms later: the layout must not
  // make any group straddle the jump — a group containing both index 55
  // and 56 would hold its early members hostage to the tail.
  const PlanOut out = plan(bursty(kParts, msec(5)));
  bool boundary_at_56 = false;
  for (std::size_t g = 0; g < out.r.groups; ++g) {
    EXPECT_FALSE(out.first[g] < 56 && out.first[g] + out.count[g] > 56);
    if (out.first[g] == 56) boundary_at_56 = true;
  }
  EXPECT_TRUE(boundary_at_56);
  EXPECT_GT(out.r.groups, 1u);
}

TEST(ArrivalPlan, DeltaIsWorstIntraGroupSpreadPlusQuantumClamped) {
  model::ArrivalLearnConfig cfg;
  cfg.max_groups = 1;  // single group: delta must cover the whole spread
  const Duration spread = msec(3);
  const PlanOut one = plan(ramp(kParts, spread), cfg);
  ASSERT_EQ(one.r.groups, 1u);
  const Duration spread_q =
      model::quantize_arrival(spread, cfg.quantum) -
      model::quantize_arrival(Duration{0}, cfg.quantum);
  EXPECT_EQ(one.r.delta, spread_q + cfg.quantum);

  // Clamps, both ends.  A simultaneous burst wants quantum-sized delta;
  // raising delta_min above the quantum must floor it there.
  model::ArrivalLearnConfig floor_cfg = cfg;
  floor_cfg.delta_min = usec(200);
  ASSERT_GT(floor_cfg.delta_min, floor_cfg.quantum);
  const PlanOut tight = plan(ramp(kParts, 0), floor_cfg);
  EXPECT_EQ(tight.r.delta, floor_cfg.delta_min);
  // A huge forced-single-group spread ceilings at delta_max.
  const PlanOut wide = plan(ramp(kParts, msec(200)), cfg);
  EXPECT_EQ(wide.r.delta, cfg.delta_max);
}

TEST(ArrivalPlan, StationaryVectorCannotFlap) {
  // The hysteresis contract's no-flap half: re-planning from the same
  // profile yields the same layout and the same predicted cost, so the
  // candidate is never *strictly* better than the incumbent it equals —
  // any epsilon >= 0 keeps the standing plan.
  const auto arrival = bursty(kParts, msec(5));
  const PlanOut incumbent = plan(arrival);
  const PlanOut candidate = plan(arrival);
  EXPECT_EQ(candidate.r.predicted, incumbent.r.predicted);
  EXPECT_FALSE(static_cast<double>(candidate.r.predicted) <
               static_cast<double>(incumbent.r.predicted) * (1.0 - 0.0));
}

TEST(ArrivalProfile, EwmaConvergesToQuantizedTruth) {
  model::ArrivalLearnConfig cfg;
  cfg.ewma_alpha = 0.25;
  part::ArrivalProfile prof;
  prof.init(kParts, cfg);
  const auto truth = bursty(kParts, msec(5));
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t i = 0; i < kParts; ++i) {
      prof.record(i, Time{1000000} + truth[i]);
    }
    prof.fold();
  }
  EXPECT_EQ(prof.epochs(), 8u);
  for (std::size_t i = 0; i < kParts; ++i) {
    // First epoch seeds the EWMA directly, later identical epochs keep
    // it fixed: convergence is exact, not asymptotic.
    EXPECT_EQ(prof.predicted()[i],
              model::quantize_arrival(truth[i], cfg.quantum))
        << i;
  }
}

TEST(ArrivalProfile, RegimeShiftReactionIsBoundedByAlpha) {
  model::ArrivalLearnConfig cfg;
  cfg.ewma_alpha = 0.5;
  part::ArrivalProfile prof;
  prof.init(kParts, cfg);
  const auto old_truth = ramp(kParts, msec(2));
  const auto new_truth = ramp(kParts, msec(8));
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (std::size_t i = 0; i < kParts; ++i) {
      prof.record(i, Time{500} + old_truth[i]);
    }
    prof.fold();
  }
  // One epoch of the new regime moves each estimate exactly alpha of the
  // way — bounded reaction, no overshoot past the new observation.
  for (std::size_t i = 0; i < kParts; ++i) {
    prof.record(i, Time{500} + new_truth[i]);
  }
  prof.fold();
  for (std::size_t i = 0; i < kParts; ++i) {
    const auto oldq = static_cast<double>(
        model::quantize_arrival(old_truth[i], cfg.quantum));
    const auto newq = static_cast<double>(
        model::quantize_arrival(new_truth[i], cfg.quantum));
    const auto got = static_cast<double>(prof.predicted()[i]);
    EXPECT_NEAR(got, 0.5 * oldq + 0.5 * newq, 1.0) << i;
    EXPECT_LE(got, std::max(oldq, newq)) << i;
    EXPECT_GE(got, std::min(oldq, newq)) << i;
  }
  // And it keeps closing geometrically: eight more epochs shrink the
  // residual to 0.5^9 of the regime jump — inside one quantum.
  for (int epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t i = 0; i < kParts; ++i) {
      prof.record(i, Time{500} + new_truth[i]);
    }
    prof.fold();
  }
  for (std::size_t i = 0; i < kParts; ++i) {
    const auto newq = static_cast<double>(
        model::quantize_arrival(new_truth[i], cfg.quantum));
    EXPECT_NEAR(static_cast<double>(prof.predicted()[i]), newq,
                static_cast<double>(cfg.quantum))
        << i;
  }
}

TEST(ArrivalProfile, SeedOverwritesAndDiscardsInFlightEpoch) {
  model::ArrivalLearnConfig cfg;
  part::ArrivalProfile prof;
  prof.init(kParts, cfg);
  // Half-record an epoch, then seed: the partial records must not leak
  // into the seeded state at the next fold.
  for (std::size_t i = 0; i < kParts / 2; ++i) {
    prof.record(i, Time{123} + msec(9));
  }
  const auto truth = ramp(kParts, msec(3));
  prof.seed(truth.data(), kParts);
  EXPECT_GE(prof.epochs(), 1u);
  for (std::size_t i = 0; i < kParts; ++i) {
    EXPECT_EQ(prof.predicted()[i], truth[i]) << i;
  }
  prof.fold();  // no-op: the interrupted epoch was discarded
  for (std::size_t i = 0; i < kParts; ++i) {
    EXPECT_EQ(prof.predicted()[i], truth[i]) << i;
  }
}

}  // namespace
}  // namespace partib::test

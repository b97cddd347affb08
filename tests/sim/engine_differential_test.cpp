// Differential fuzz: the production radix-heap engine vs. the original
// std::map reference implementation (tests/support/reference_engine.hpp).
//
// The engine rewrite is only admissible if it is *observationally
// identical* to the map engine: same dispatch order, same sequence-number
// assignment, same observer stream, same cancel results.  This test
// replays >10k randomized schedule_at / schedule_after / cancel /
// run_until / step operations — including re-entrant scheduling and
// cancellation from inside callbacks — through both engines and asserts
// the full (time, seq, site) dispatch streams and the determinism-auditor
// fingerprints match event for event.
//
// A second script family spreads keys from 1 ns to 2^40 ns (every radix
// bucket), cancels past the compaction threshold and drains to empty
// between phases; two named regressions pin the radix heap's edge cases.
//
//   ./sim_engine_differential_test --seed=<seed>
//
// --seed=N  base seed of every randomized script (default: the fixed
//           corpus).  Always printed first, so a red run replays verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "sim/engine.hpp"
#include "support/flags.hpp"
#include "support/reference_engine.hpp"

namespace partib::sim {
namespace {

constexpr std::uint64_t kCorpusSeed = 0x5eed0000;
std::uint64_t g_seed = kCorpusSeed;

constexpr const char* kSites[] = {"diff.alpha", "diff.beta", "diff.gamma",
                                  "diff.delta", nullptr};
constexpr std::size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

// What a dispatched callback does: schedule more events (re-entrant) and
// possibly cancel a previously issued id.  Child plan indices are strictly
// smaller than the parent's, so every chain terminates.
struct ChildSpec {
  Time delta = 0;
  std::size_t plan = 0;
  std::size_t site = 0;
};

struct Plan {
  std::vector<ChildSpec> children;
  bool cancels = false;
  std::uint64_t cancel_pick = 0;
};

struct Op {
  enum Kind { kScheduleAt, kScheduleAfter, kCancel, kRunUntil, kStep, kRun };
  Kind kind = kScheduleAt;
  Time delta = 0;
  std::size_t plan = 0;
  std::size_t site = 0;
  std::uint64_t pick = 0;
  // kCancel picks among the `window` most recently issued ids (0: all).
  std::size_t window = 0;
};

struct Script {
  std::vector<Plan> plans;
  std::vector<Op> ops;
};

Script make_script(std::uint64_t seed, std::size_t num_ops) {
  std::mt19937_64 rng(seed);
  Script sc;
  constexpr std::size_t kNumPlans = 48;
  constexpr std::size_t kNumLeaves = 8;
  sc.plans.resize(kNumPlans);
  for (std::size_t i = kNumLeaves; i < kNumPlans; ++i) {
    Plan& p = sc.plans[i];
    const std::size_t kids = rng() % 3;
    for (std::size_t k = 0; k < kids; ++k) {
      p.children.push_back(ChildSpec{static_cast<Time>(rng() % 200),
                                     rng() % i, rng() % kNumSites});
    }
    p.cancels = rng() % 3 == 0;
    p.cancel_pick = rng();
  }
  sc.ops.reserve(num_ops);
  for (std::size_t i = 0; i < num_ops; ++i) {
    Op op;
    const std::uint64_t roll = rng() % 100;
    if (roll < 35) {
      op.kind = Op::kScheduleAt;
    } else if (roll < 55) {
      op.kind = Op::kScheduleAfter;
    } else if (roll < 75) {
      op.kind = Op::kCancel;
    } else if (roll < 90) {
      op.kind = Op::kRunUntil;
    } else {
      op.kind = Op::kStep;
    }
    op.delta = static_cast<Time>(rng() % 500);
    op.plan = rng() % sc.plans.size();
    op.site = rng() % kNumSites;
    op.pick = rng();
    sc.ops.push_back(op);
  }
  return sc;
}

// Log-uniform delay in [0, 2^40): every radix bucket up to bit 40 sees
// traffic, from same-key ties to keys a simulated quarter hour apart.
Time spread_delta(std::mt19937_64& rng) {
  return static_cast<Time>((rng() & ((std::uint64_t{1} << 40) - 1)) >>
                           (rng() % 41));
}

// Four phases, each: a burst of schedules at spread keys with
// run_until/step interleaved, so entries split into lower buckets; a
// second burst with nothing dispatched in between, all but every 32nd of
// it then cancelled — ~2,600 dead against ~650 live by the time the
// compaction threshold (dead > 1024 and dead > 4x live) trips; a few more
// advances over the compacted queue; and one far event scheduled then
// cancelled, so the final drain splits at a cancelled minimum.  Each
// phase drains to empty before the next schedules again.
Script make_spread_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Script sc;
  constexpr std::size_t kNumPlans = 48;
  constexpr std::size_t kNumLeaves = 8;
  constexpr std::size_t kMixed = 512;
  constexpr std::size_t kArmed = 3072;
  sc.plans.resize(kNumPlans);
  for (std::size_t i = kNumLeaves; i < kNumPlans; ++i) {
    Plan& p = sc.plans[i];
    const std::size_t kids = rng() % 3;
    for (std::size_t k = 0; k < kids; ++k) {
      p.children.push_back(
          ChildSpec{spread_delta(rng), rng() % i, rng() % kNumSites});
    }
    p.cancels = rng() % 3 == 0;
    p.cancel_pick = rng();
  }
  auto schedule = [&] {
    Op op;
    op.kind = rng() % 2 == 0 ? Op::kScheduleAt : Op::kScheduleAfter;
    op.delta = spread_delta(rng);
    op.plan = rng() % kNumPlans;
    op.site = rng() % kNumSites;
    sc.ops.push_back(op);
  };
  auto advance = [&] {
    Op op;
    op.kind = rng() % 4 == 0 ? Op::kStep : Op::kRunUntil;
    op.delta = spread_delta(rng);
    sc.ops.push_back(op);
  };
  for (int phase = 0; phase < 4; ++phase) {
    for (std::size_t i = 0; i < kMixed; ++i) {
      schedule();
      if (rng() % 32 == 0) advance();
    }
    for (std::size_t i = 0; i < kArmed; ++i) schedule();
    for (std::size_t i = 0; i < kArmed; ++i) {
      if (i % 32 == 0) continue;
      Op op;
      op.kind = Op::kCancel;
      op.window = kArmed;
      op.pick = i;
      sc.ops.push_back(op);
    }
    for (int i = 0; i < 16; ++i) advance();
    Op far;
    far.kind = Op::kScheduleAt;
    far.delta = Time{1} << 40;
    far.plan = rng() % kNumLeaves;
    sc.ops.push_back(far);
    Op cancel_far;
    cancel_far.kind = Op::kCancel;
    cancel_far.window = 1;
    sc.ops.push_back(cancel_far);
    Op drain;
    drain.kind = Op::kRun;
    sc.ops.push_back(drain);
  }
  return sc;
}

struct Record {
  Time time;
  std::uint64_t seq;
  std::string site;

  bool operator==(const Record& o) const {
    return time == o.time && seq == o.seq && site == o.site;
  }
};

struct RunResult {
  std::vector<Record> stream;
  std::vector<bool> cancel_results;
  Time final_now = 0;
  std::uint64_t processed = 0;
  std::size_t pending = 0;
};

// Executes a script against one engine type.  Event ids are referenced by
// their issue index so the two engines' distinct EventId types never have
// to be compared directly; as long as the dispatch streams agree, the id
// lists stay index-aligned.
template <typename EngineT>
class Runner {
 public:
  explicit Runner(const Script& sc) : sc_(sc) {}

  RunResult run() {
    engine_.set_dispatch_observer(
        [this](Time t, std::uint64_t seq, const char* site) {
          result_.stream.push_back(
              Record{t, seq, site != nullptr ? site : "(null)"});
        });
    for (const Op& op : sc_.ops) apply(op);
    engine_.run();  // drain whatever is left
    result_.final_now = engine_.now();
    result_.processed = engine_.processed_count();
    result_.pending = engine_.pending();
    return std::move(result_);
  }

  // Same script, but fingerprinted through the determinism auditor (which
  // occupies the engine's single observer slot).
  std::uint64_t run_fingerprint() {
    check::DeterminismAuditor auditor;
    auditor.attach(engine_);
    for (const Op& op : sc_.ops) apply(op);
    engine_.run();
    const std::uint64_t fp = auditor.fingerprint();
    auditor.detach();
    return fp;
  }

 private:
  void apply(const Op& op) {
    switch (op.kind) {
      case Op::kScheduleAt:
        schedule(ChildSpec{op.delta, op.plan, op.site}, /*relative=*/false);
        break;
      case Op::kScheduleAfter:
        schedule(ChildSpec{op.delta, op.plan, op.site}, /*relative=*/true);
        break;
      case Op::kCancel:
        if (!ids_.empty()) {
          const std::size_t n = op.window == 0
                                    ? ids_.size()
                                    : std::min(op.window, ids_.size());
          result_.cancel_results.push_back(engine_.cancel(
              ids_[ids_.size() - n + op.pick % n]));
        }
        break;
      case Op::kRunUntil:
        engine_.run_until(engine_.now() + op.delta);
        break;
      case Op::kStep:
        engine_.step();
        break;
      case Op::kRun:
        engine_.run();
        break;
    }
  }

  void schedule(const ChildSpec& spec, bool relative) {
    const std::size_t plan = spec.plan;
    auto cb = [this, plan] { on_fire(plan); };
    if (relative) {
      ids_.push_back(
          engine_.schedule_after(spec.delta, cb, kSites[spec.site]));
    } else {
      ids_.push_back(engine_.schedule_at(engine_.now() + spec.delta, cb,
                                         kSites[spec.site]));
    }
  }

  void on_fire(std::size_t plan_idx) {
    const Plan& p = sc_.plans[plan_idx];
    for (const ChildSpec& c : p.children) schedule(c, /*relative=*/false);
    if (p.cancels && !ids_.empty()) {
      result_.cancel_results.push_back(
          engine_.cancel(ids_[p.cancel_pick % ids_.size()]));
    }
  }

  const Script& sc_;
  EngineT engine_;
  std::vector<typename EngineT::EventId> ids_;
  RunResult result_;
};

// Every randomized family derives its seeds from its own corpus base,
// shifted by --seed's distance from the default.
std::uint64_t seed_for(std::uint64_t corpus_base, std::size_t round) {
  return corpus_base + (g_seed - kCorpusSeed) + round;
}

void expect_matches_reference(const Script& sc, std::uint64_t seed) {
  const RunResult prod = Runner<Engine>(sc).run();
  const RunResult ref = Runner<test::ReferenceEngine>(sc).run();

  ASSERT_EQ(prod.stream.size(), ref.stream.size()) << "seed " << seed;
  for (std::size_t i = 0; i < prod.stream.size(); ++i) {
    ASSERT_EQ(prod.stream[i], ref.stream[i])
        << "seed " << seed << " event " << i << ": production ("
        << prod.stream[i].time << ", " << prod.stream[i].seq << ", "
        << prod.stream[i].site << ") vs reference (" << ref.stream[i].time
        << ", " << ref.stream[i].seq << ", " << ref.stream[i].site << ")";
  }
  EXPECT_EQ(prod.cancel_results, ref.cancel_results) << "seed " << seed;
  EXPECT_EQ(prod.final_now, ref.final_now) << "seed " << seed;
  EXPECT_EQ(prod.processed, ref.processed) << "seed " << seed;
  EXPECT_EQ(prod.pending, ref.pending) << "seed " << seed;
}

TEST(EngineDifferential, RandomizedInterleavingsMatchReference) {
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kOpsPerRound = 256;  // 10240 top-level ops total
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = seed_for(kCorpusSeed, round);
    expect_matches_reference(make_script(seed, kOpsPerRound), seed);
  }
}

TEST(EngineDifferential, SpreadKeysHeavyCancelDrainMatchReference) {
  for (std::size_t round = 0; round < 6; ++round) {
    const std::uint64_t seed = seed_for(0x5b7e0000, round);
    expect_matches_reference(make_spread_script(seed), seed);
  }
}

TEST(EngineDifferential, FingerprintsMatchReference) {
  for (std::size_t round = 0; round < 8; ++round) {
    const Script sc = make_script(seed_for(0xf1b90000, round), 512);
    const std::uint64_t fp_prod = Runner<Engine>(sc).run_fingerprint();
    const std::uint64_t fp_ref =
        Runner<test::ReferenceEngine>(sc).run_fingerprint();
    EXPECT_TRUE(check::DeterminismAuditor::expect_identical(
        fp_prod, fp_ref, "engine differential fuzz"))
        << "round " << round;
    // And the fingerprint is stable run-to-run on the production engine.
    EXPECT_EQ(fp_prod, Runner<Engine>(sc).run_fingerprint())
        << "round " << round;
  }
}

// Records the dispatch stream of `drive(engine)`.
template <typename EngineT, typename Drive>
std::vector<Record> stream_of(Drive drive) {
  EngineT e;
  std::vector<Record> stream;
  e.set_dispatch_observer(
      [&stream](Time t, std::uint64_t seq, const char* site) {
        stream.push_back(Record{t, seq, site != nullptr ? site : "(null)"});
      });
  drive(e);
  e.run();
  return stream;
}

// run_until must not split a bucket whose minimum lies past the deadline:
// the split would raise the radix base above a key the caller may still
// schedule once run_until returns.
TEST(EngineDifferential, RunUntilShortOfFarEventThenScheduleBetween) {
  auto drive = [](auto& e) {
    e.schedule_at(Time{1} << 30, [] {}, "diff.far");
    e.run_until(1000);
    e.schedule_at(5000, [] {}, "diff.between");
    e.schedule_at(4000, [] {}, "diff.between");
  };
  const auto prod = stream_of<Engine>(drive);
  EXPECT_EQ(prod, stream_of<test::ReferenceEngine>(drive));
  ASSERT_EQ(prod.size(), 3u);
  EXPECT_EQ(prod[0].time, 4000);
}

// Splitting at a cancelled minimum can drain the queue with the radix base
// above now(); the base must fall back to now() so a later schedule below
// the cancelled key still files and dispatches in order.
TEST(EngineDifferential, CancelledFarMinimumDrainsThenScheduleBelow) {
  auto drive = [](auto& e) {
    e.schedule_at(10, [] {}, "diff.near");
    const auto far = e.schedule_at(1000, [] {}, "diff.far");
    e.run_until(20);
    EXPECT_TRUE(e.cancel(far));
    e.run();
    e.schedule_at(500, [] {}, "diff.below");
    e.schedule_at(600, [] {}, "diff.below");
  };
  const auto prod = stream_of<Engine>(drive);
  EXPECT_EQ(prod, stream_of<test::ReferenceEngine>(drive));
  ASSERT_EQ(prod.size(), 3u);
  EXPECT_EQ(prod[1].time, 500);
}

// Cancel-heavy script that forces the production engine through its
// tombstone-compaction path (>1024 dead events with few live survivors)
// while the reference simply erases — the streams must still agree.
template <typename EngineT>
std::vector<Record> mass_cancel_stream() {
  return stream_of<EngineT>([](EngineT& e) {
    std::vector<typename EngineT::EventId> ids;
    for (int i = 0; i < 4096; ++i) {
      ids.push_back(e.schedule_at((i * 13) % 97, [] {}, "diff.mass"));
    }
    // Cancel all but every 64th event, front to back.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i % 64 != 0) {
        EXPECT_TRUE(e.cancel(ids[i]));
      }
    }
  });
}

TEST(EngineDifferential, MassCancellationMatchesReference) {
  EXPECT_EQ(mass_cancel_stream<Engine>(),
            mass_cancel_stream<test::ReferenceEngine>());
}

}  // namespace
}  // namespace partib::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      partib::sim::g_seed =
          partib::test::parse_u64_flag(argv[i] + 7, "--seed");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  std::printf("engine-fuzz: --seed=%llu\n",
              static_cast<unsigned long long>(partib::sim::g_seed));
  return RUN_ALL_TESTS();
}

// The parallel experiment runner: submission-order result collection
// (byte-identical output for any job count), the job-count thread bound,
// exception propagation, and fingerprints / derived seeds.  The
// run_trials tests also run under TSan (see the tsan CI job), where a
// race on the claim counter or the kept exception shows up as a report
// rather than a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/fingerprint.hpp"
#include "runner/runner.hpp"

namespace partib::runner {
namespace {

// -- fingerprints ------------------------------------------------------------

TEST(Fingerprint, StableAcrossCallsAndSensitiveToEveryField) {
  auto fp = [](std::uint64_t a, double b, bool c, const char* s) {
    Hasher h;
    return h.str("test/v1").u64(a).f64(b).boolean(c).str(s).digest();
  };
  EXPECT_EQ(fp(1, 2.0, true, "x"), fp(1, 2.0, true, "x"));
  EXPECT_NE(fp(1, 2.0, true, "x"), fp(2, 2.0, true, "x"));
  EXPECT_NE(fp(1, 2.0, true, "x"), fp(1, 2.5, true, "x"));
  EXPECT_NE(fp(1, 2.0, true, "x"), fp(1, 2.0, false, "x"));
  EXPECT_NE(fp(1, 2.0, true, "x"), fp(1, 2.0, true, "y"));
}

TEST(Fingerprint, LengthPrefixPreventsStringAliasing) {
  Hasher a, b;
  a.str("ab").str("c");
  b.str("a").str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, KnownFnvVector) {
  // FNV-1a 64 of "a" — pins the algorithm: derived seeds and perfbench's
  // row digests hash through it, so changing it would move pinned output.
  Hasher h;
  h.bytes("a", 1);
  EXPECT_EQ(h.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fingerprint, DerivedSeedIsDeterministicNonZeroAndSpreads) {
  EXPECT_EQ(derive_seed(42), derive_seed(42));
  EXPECT_NE(derive_seed(42), derive_seed(43));
  EXPECT_NE(derive_seed(0), 0u);
  EXPECT_NE(derive_seed(~0ULL), 0u);
}

TEST(Fingerprint, HexIsFixedWidthLowercase) {
  EXPECT_EQ(to_hex(0), "0000000000000000");
  EXPECT_EQ(to_hex(0xABCDEF0123456789ULL), "abcdef0123456789");
}

// -- run_trials --------------------------------------------------------------

struct TrialConfig {
  int value = 0;
};

std::vector<TrialConfig> make_grid(int n) {
  std::vector<TrialConfig> grid;
  for (int i = 0; i < n; ++i) grid.push_back({i});
  return grid;
}

TEST(RunTrials, ResultsComeBackInSubmissionOrderForAnyJobCount) {
  const auto grid = make_grid(100);
  auto trial = [](const TrialConfig& c) { return c.value * 7; };
  for (std::size_t jobs : {1u, 2u, 8u}) {
    RunOptions opts;
    opts.jobs = jobs;
    const auto results =
        run_trials<TrialConfig, int>(grid, trial, opts);
    ASSERT_EQ(results.size(), grid.size());
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 7)
          << "jobs=" << jobs;
    }
  }
}

TEST(RunTrials, DefaultJobsHonoursEnvOverride) {
  ::setenv("PARTIB_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3u);
  ::unsetenv("PARTIB_JOBS");
  EXPECT_GE(default_jobs(), 1u);
}

TEST(RunTrials, RunsOnAtMostJobsThreadsAndInlineAtOne) {
  // Each trial records the id of the thread that ran it; slots are
  // distinct per trial, so the writes need no lock.  A trial lasts a
  // millisecond, far longer than a thread takes to start, so every
  // thread run_trials starts gets to claim some trials.
  auto thread_ids = [](int trials, std::size_t jobs) {
    std::vector<std::thread::id> ids(static_cast<std::size_t>(trials));
    RunOptions opts;
    opts.jobs = jobs;
    (void)run_trials<TrialConfig, int>(
        make_grid(trials),
        [&ids](const TrialConfig& c) {
          ids[static_cast<std::size_t>(c.value)] = std::this_thread::get_id();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return c.value;
        },
        opts);
    return ids;
  };

  for (const std::thread::id id : thread_ids(16, 1)) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  const auto three = thread_ids(64, 3);
  EXPECT_LE(std::set<std::thread::id>(three.begin(), three.end()).size(), 3u);
  const auto two = thread_ids(2, 8);
  EXPECT_LE(std::set<std::thread::id>(two.begin(), two.end()).size(), 2u);
}

TEST(RunTrials, StatsCountExecutedTrials) {
  const auto grid = make_grid(10);
  RunOptions opts;
  opts.jobs = 2;
  RunStats stats;
  (void)run_trials<TrialConfig, int>(
      grid, [](const TrialConfig& c) { return c.value; }, opts, &stats);
  EXPECT_EQ(stats.trials, 10u);
}

// -- run_trials exception propagation ---------------------------------------

TEST(RunTrialsExceptions, ThrowingTrialRethrowsOnCallerWithoutDeadlock) {
  // One trial throwing must not stop the other claimants or leave a
  // thread un-joined; the exception surfaces on the submitting thread
  // exactly as the serial path would surface it.
  std::vector<int> configs(32);
  for (int i = 0; i < 32; ++i) configs[i] = i;
  std::atomic<int> executed{0};

  auto trial = [&executed](int c) -> int {
    if (c == 7) throw std::runtime_error("trial 7 failed");
    executed.fetch_add(1, std::memory_order_relaxed);
    return c * 2;
  };

  RunOptions opts;
  opts.jobs = 4;
  EXPECT_THROW(
      (run_trials<int, int>(configs, trial, opts)),
      std::runtime_error);
  // Every other trial still ran to completion before the rethrow: a
  // claimant keeps claiming after a throw, so the batch drains fully.
  EXPECT_EQ(executed.load(), 31);
}

TEST(RunTrialsExceptions, SerialPathThrowsIdentically) {
  std::vector<int> configs{1, 2, 3};
  auto trial = [](int c) -> int {
    if (c == 2) throw std::invalid_argument("bad config");
    return c;
  };
  RunOptions opts;
  opts.jobs = 1;
  EXPECT_THROW(
      (run_trials<int, int>(configs, trial, opts)),
      std::invalid_argument);
}

TEST(RunTrialsExceptions, MultipleThrowingTrialsStillJoinCleanly) {
  // Several threads throwing concurrently exercise the first-exception
  // mutex and the keep-claiming-after-a-throw loop together.
  std::vector<int> configs(64);
  for (int i = 0; i < 64; ++i) configs[i] = i;
  auto trial = [](int c) -> int {
    if (c % 2 == 0) throw std::runtime_error("even configs all fail");
    return c;
  };
  RunOptions opts;
  opts.jobs = 8;
  EXPECT_THROW(
      (run_trials<int, int>(configs, trial, opts)),
      std::runtime_error);
}

}  // namespace
}  // namespace partib::runner

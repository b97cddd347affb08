// DES-vs-shm differential harness.
//
// The DES fluid fabric is the oracle: its timeline is virtual and pinned
// by the figure fingerprints.  The shm transport runs the identical
// part/mpi/verbs stack in real time over lock-free rings.  Time values
// differ by construction, so the differential contract is everything a
// correct transport may NOT change:
//
//   * delivered bytes   — the receive buffer matches the sent pattern
//                         byte for byte, every round, both backends;
//   * wire accounting   — wrs_posted_total and messages_received_total
//                         per round are equal (the aggregation plan is a
//                         pure function of geometry + aggregator, never
//                         of transport timing, for plan-deterministic
//                         aggregators: persistent / static / ploggp);
//   * completion set    — both sides reach test() == true each round with
//                         equal round counters;
//   * checker silence   — zero partib-check violations on either backend.
//
// Geometry corpus: >= 50 seeded (partitions, partition-size, aggregator,
// rounds) tuples drawn from sim::Rng(seed), same derivation for both
// backends.  A second, large-message family draws partitions of 256 KiB
// to 4 MiB, odd sizes included, so every write is big enough for the shm
// transport's DMA engine to split into 64 KiB chunks (and most end in a
// partial chunk).  Timer/learning aggregators are deliberately excluded:
// their plans depend on observed arrival *times*, which differ across
// backends by design (documented in docs/BACKENDS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/units.hpp"
#include "sim/rng.hpp"
#include "support/backend_fixture.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

struct RoundDigest {
  std::uint64_t wrs_posted = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t recv_checksum = 0;  ///< FNV-1a of the receive buffer
  bool send_done = false;
  bool recv_done = false;

  bool operator==(const RoundDigest&) const = default;
};

struct Geometry {
  std::size_t partitions;
  std::size_t partition_bytes;
  int rounds;
  int aggregator;  // 0 = persistent, 1 = static, 2 = ploggp
  std::size_t static_tp;
  int static_qps;
};

Geometry derive_geometry(std::uint64_t seed) {
  sim::Rng rng(seed);
  Geometry g;
  g.partitions = std::size_t{1} << rng.uniform_int(0, 6);
  g.partition_bytes = std::size_t{1} << rng.uniform_int(6, 12);
  g.rounds = static_cast<int>(rng.uniform_int(1, 3));
  g.aggregator = static_cast<int>(rng.uniform_int(0, 2));
  g.static_tp = std::size_t{1} << rng.uniform_int(0, 6);
  g.static_qps = static_cast<int>(rng.uniform_int(1, 4));
  return g;
}

/// The large-message family: every message (a partition or an aggregate
/// of them) is 256 KiB to 4 MiB, the whole buffer at most 4 MiB.
Geometry derive_large_geometry(std::uint64_t seed) {
  sim::Rng rng(seed);
  Geometry g;
  const int log_partitions = static_cast<int>(rng.uniform_int(0, 4));
  g.partitions = std::size_t{1} << log_partitions;
  g.partition_bytes = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(256 * KiB),
      static_cast<std::int64_t>(4 * MiB / g.partitions)));
  g.rounds = static_cast<int>(rng.uniform_int(1, 2));
  g.aggregator = static_cast<int>(rng.uniform_int(0, 2));
  g.static_tp = std::size_t{1} << rng.uniform_int(0, log_partitions);
  g.static_qps = static_cast<int>(rng.uniform_int(1, 4));
  return g;
}

part::Options options_for(const Geometry& g) {
  switch (g.aggregator) {
    case 0: return persistent_options();
    case 1: return static_options(g.static_tp, g.static_qps);
    default: return ploggp_options();
  }
}

std::uint64_t fnv1a(const std::vector<std::byte>& buf) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte b : buf) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// Run the geometry on the named backend; one digest per round.  `seed`
/// labels failures.
std::vector<RoundDigest> run_on(const std::string& backend, const Geometry& g,
                                std::uint64_t seed) {
  check::reset();
  check::ScopedPolicy policy(check::Policy::kCount);

  current_backend() = backend;
  std::vector<RoundDigest> digests;
  {
    ChannelFixture fx(g.partitions * g.partition_bytes, g.partitions,
                      options_for(g));
    for (int round = 1; round <= g.rounds; ++round) {
      fx.run_round(round);
      RoundDigest d;
      d.wrs_posted = fx.send->wrs_posted_total();
      d.messages_received = fx.recv->messages_received_total();
      d.recv_checksum = fnv1a(fx.rbuf);
      d.send_done = fx.send->test();
      d.recv_done = fx.recv->test();
      digests.push_back(d);

      // Ground truth, not just cross-equality: the receiver must hold the
      // sender's pattern on both backends.
      EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf))
          << backend << " seed " << seed << " round " << round;
    }
  }
  current_backend() = "des";

  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::violation_count(), 0u) << backend << " seed " << seed;
  }
  check::reset();
  return digests;
}

/// The shm digests of `g` equal the DES oracle's, round by round.
void expect_shm_matches_des(const Geometry& g, std::uint64_t seed) {
  const std::vector<RoundDigest> des = run_on("des", g, seed);
  const std::vector<RoundDigest> shm = run_on("shm", g, seed);
  ASSERT_EQ(des.size(), shm.size()) << "seed " << seed;
  for (std::size_t r = 0; r < des.size(); ++r) {
    EXPECT_EQ(des[r], shm[r]) << "seed " << seed << " round " << r + 1
                              << ": wrs " << des[r].wrs_posted << "/"
                              << shm[r].wrs_posted << ", msgs "
                              << des[r].messages_received << "/"
                              << shm[r].messages_received;
  }
}

TEST(BackendDifferential, FiftyGeometriesShmMatchesDesOracle) {
  constexpr std::uint64_t kSeeds = 50;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_shm_matches_des(derive_geometry(seed), seed);
  }
}

TEST(BackendDifferential, LargeMessagesShmMatchesDesOracle) {
  constexpr std::uint64_t kSeeds = 8;
  bool partial_chunk = false;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Geometry g = derive_large_geometry(seed);
    partial_chunk |= g.partition_bytes % (64 * KiB) != 0;
    expect_shm_matches_des(g, seed);
  }
  EXPECT_TRUE(partial_chunk);
}

TEST(BackendDifferential, ShmReplaysItsOwnSeedDeterministically) {
  // The shm transport is real-time, so its *timing* is not reproducible —
  // but its observable results must be: same seed, same digests.
  for (std::uint64_t seed = 3; seed <= 23; seed += 5) {
    const Geometry g = derive_geometry(seed);
    const std::vector<RoundDigest> a = run_on("shm", g, seed);
    const std::vector<RoundDigest> b = run_on("shm", g, seed);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace partib::test

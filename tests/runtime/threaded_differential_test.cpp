// Differential harness: threaded producers vs the DES oracle.
//
// DES mode is the determinism oracle — the single-threaded engine whose
// figure fingerprints are pinned byte-for-byte.  This harness runs the
// same channel geometry twice per trial:
//
//   oracle:   plain DES, every partition marked ready in ascending order
//             on the one thread, engine.run() to quiescence;
//   threaded: N real producer threads racing pready/pready_range through
//             the sharded engine while the main thread pumps the bridge.
//
// The claim-arrival interleaving differs wildly between the two (and
// between repeat threaded runs), so message counts and virtual-time
// traces may differ; what must NOT differ is the result: per-channel
// received bytes (checksummed) and per-partition completion sets.  Trials
// cycle 1, 4 and 16 producers over seeded random geometry, with the PR 6
// lock-order and cross-thread ownership auditors plus this PR's
// shard-affinity auditor armed the whole time — any report fails the
// trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "backend/des_backend.hpp"
#include "check/check.hpp"
#include "check/concurrency_check.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "runtime/bridge.hpp"
#include "runtime/producer.hpp"
#include "runtime/sharded_engine.hpp"
#include "support/test_world.hpp"

namespace partib::runtime {
namespace {

std::uint64_t fnv1a(const std::vector<std::byte>& buf) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : buf) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Geometry {
  std::size_t channels;
  std::size_t partitions;
  std::size_t psize;
  std::size_t tp;
  int qps;
  std::size_t shards;
  int rounds;
};

Geometry random_geometry(std::mt19937& rng) {
  Geometry g;
  g.channels = 1 + rng() % 3;
  g.partitions = std::size_t{16} << (rng() % 4);  // 16..128
  g.psize = std::size_t{32} << (rng() % 3);       // 32..128 bytes
  g.tp = std::min<std::size_t>(g.partitions, std::size_t{4} << (rng() % 3));
  g.qps = 1 + static_cast<int>(rng() % 2);
  g.shards = std::size_t{1} << (rng() % 3);  // 1..4
  g.rounds = 2;
  return g;
}

/// N identical channels rank0 -> rank1 on one world, distinct tags.
struct MultiChannel {
  backend::DesBackend des{mpi::backend_config({})};
  sim::Engine& engine = des.engine();
  mpi::World world{des, {}};
  std::vector<std::vector<std::byte>> sbufs;
  std::vector<std::vector<std::byte>> rbufs;
  std::vector<std::unique_ptr<part::PsendRequest>> sends;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs;

  explicit MultiChannel(const Geometry& g) {
    const part::Options opts =
        test::static_options(g.tp, g.qps);
    const std::size_t bytes = g.partitions * g.psize;
    sbufs.resize(g.channels);
    rbufs.resize(g.channels);
    sends.resize(g.channels);
    recvs.resize(g.channels);
    for (std::size_t c = 0; c < g.channels; ++c) {
      sbufs[c].resize(bytes);
      rbufs[c].resize(bytes);
      PARTIB_ASSERT(ok(part::psend_init(world.rank(0), sbufs[c],
                                        g.partitions, /*dst=*/1,
                                        /*tag=*/static_cast<int>(c),
                                        /*comm=*/0, opts, &sends[c])));
      PARTIB_ASSERT(ok(part::precv_init(world.rank(1), rbufs[c],
                                        g.partitions, /*src=*/0,
                                        /*tag=*/static_cast<int>(c),
                                        /*comm=*/0, opts, &recvs[c])));
    }
    engine.run();  // settle handshakes
  }

  void start_round(int round) {
    for (std::size_t c = 0; c < sbufs.size(); ++c) {
      test::fill_pattern(sbufs[c], round * 17 + static_cast<int>(c));
      PARTIB_ASSERT(ok(sends[c]->start()));
      PARTIB_ASSERT(ok(recvs[c]->start()));
    }
  }

  bool round_done() const {
    for (std::size_t c = 0; c < sends.size(); ++c) {
      if (!sends[c]->test() || !recvs[c]->test()) return false;
    }
    return true;
  }
};

struct Fingerprint {
  std::vector<std::uint64_t> checksums;            // per channel, per round
  std::vector<std::vector<bool>> arrived;          // per channel (last round)
  bool operator==(const Fingerprint&) const = default;
};

/// The oracle: single-threaded DES, ascending pready order.
Fingerprint run_des_oracle(const Geometry& g) {
  MultiChannel mc(g);
  Fingerprint fp;
  for (int round = 1; round <= g.rounds; ++round) {
    mc.start_round(round);
    for (std::size_t c = 0; c < g.channels; ++c) {
      for (std::size_t p = 0; p < g.partitions; ++p) {
        PARTIB_ASSERT(ok(mc.sends[c]->pready(p)));
      }
    }
    mc.engine.run();
    PARTIB_ASSERT(mc.round_done());
    for (std::size_t c = 0; c < g.channels; ++c) {
      fp.checksums.push_back(fnv1a(mc.rbufs[c]));
    }
  }
  fp.arrived.resize(g.channels);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t p = 0; p < g.partitions; ++p) {
      fp.arrived[c].push_back(mc.recvs[c]->parrived(p));
    }
  }
  return fp;
}

/// The same geometry with `producers` racing threads per round.
Fingerprint run_threaded(const Geometry& g, int producers, unsigned seed) {
  MultiChannel mc(g);
  ShardedProgressEngine::Config cfg;
  cfg.shards = g.shards;
  ShardedProgressEngine rt(cfg);
  for (std::size_t c = 0; c < g.channels; ++c) {
    rt.add_channel(mc.sends[c].get(), mc.recvs[c].get());
  }

  Fingerprint fp;
  for (int round = 1; round <= g.rounds; ++round) {
    mc.start_round(round);
    rt.begin_round();

    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(seed + static_cast<unsigned>(t * 101 + round));
        ProducerHandle h(rt, static_cast<std::uint32_t>(t));
        for (std::size_t c = 0; c < g.channels; ++c) {
          // This thread's slice: partitions congruent to t mod producers,
          // claimed in shuffled order; then a full-range sweep so every
          // thread also races for everyone else's partitions.
          std::vector<std::size_t> mine;
          for (std::size_t p = static_cast<std::size_t>(t);
               p < g.partitions;
               p += static_cast<std::size_t>(producers)) {
            mine.push_back(p);
          }
          std::shuffle(mine.begin(), mine.end(), rng);
          for (std::size_t p : mine) h.pready(c, p);
          if (rng() % 2 == 0) {
            h.pready_range(c, 0, g.partitions - 1);
          }
        }
        h.flush();  // publish before this thread signals done by exiting
      });
    }
    pump_until(mc.engine, rt, [&] { return mc.round_done(); });
    for (auto& th : threads) th.join();
    PARTIB_ASSERT(rt.quiescent());

    for (std::size_t c = 0; c < g.channels; ++c) {
      fp.checksums.push_back(fnv1a(mc.rbufs[c]));
    }
  }
  fp.arrived.resize(g.channels);
  for (std::size_t c = 0; c < g.channels; ++c) {
    for (std::size_t p = 0; p < g.partitions; ++p) {
      // Both the engine mirror and the request itself must agree.
      const bool mirror = rt.parrived(c, p);
      const bool direct = mc.recvs[c]->parrived(p);
      PARTIB_ASSERT(mirror == direct);
      fp.arrived[c].push_back(direct);
    }
  }
  return fp;
}

TEST(ThreadedDifferential, MatchesDesOracleAcrossSeededTrials) {
  constexpr int kTrials = 102;  // >= 100; cycles 1, 4, 16 producers
  constexpr int kProducerCycle[] = {1, 4, 16};
  check::reset();
  check::ScopedLockAudit lock_audit;
  check::ScopedOwnerAudit owner_audit;
  check::ScopedShardAudit shard_audit;

  for (int trial = 0; trial < kTrials; ++trial) {
    const unsigned seed = 0x5EED0000u + static_cast<unsigned>(trial);
    std::mt19937 rng(seed);
    const Geometry g = random_geometry(rng);
    const int producers = kProducerCycle[trial % 3];

    const Fingerprint oracle = run_des_oracle(g);
    const Fingerprint threaded = run_threaded(g, producers, seed);

    ASSERT_EQ(threaded.checksums, oracle.checksums)
        << "trial " << trial << ": per-channel received bytes diverged "
        << "(producers=" << producers << ", channels=" << g.channels
        << ", partitions=" << g.partitions << ", shards=" << g.shards
        << ")";
    ASSERT_EQ(threaded.arrived, oracle.arrived)
        << "trial " << trial << ": completion sets diverged";

    ASSERT_EQ(check::lock_order_reports(), 0u) << "trial " << trial;
    ASSERT_EQ(check::cross_thread_reports(), 0u) << "trial " << trial;
    ASSERT_EQ(check::shard_affinity_reports(), 0u) << "trial " << trial;
  }
  check::reset();
}

}  // namespace
}  // namespace partib::runtime

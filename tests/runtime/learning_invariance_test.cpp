// Producer-thread-count invariance of learned plans (docs/ADAPTIVE.md,
// docs/THREADING.md).
//
// The arrival profile quantizes offsets onto the learning grid before
// the EWMA, so the plan the sender learns must be a function of the
// arrival *pattern*, not of which producer thread delivered each Pready
// or how the claims interleaved.  This harness replays the same
// virtual-time arrival schedule through 1, 4 and 16 racing producers:
// each wave of partitions is released only after the bridge has advanced
// virtual time to the wave's offset (Engine::run_until), producers race
// to claim the wave, and the bridge applies the claims while the clock
// still reads the wave's exact offset.  The learned plan — group
// layout, timer delta, transport-partition count, adopted-replan count,
// folded epochs — must come out identical across producer counts, and
// every round must stay byte-exact.  Runs under the TSan CI job via the
// `threaded` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "backend/des_backend.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "runtime/bridge.hpp"
#include "runtime/producer.hpp"
#include "runtime/sharded_engine.hpp"
#include "support/test_world.hpp"

namespace partib::runtime {
namespace {

constexpr std::size_t kPartitions = 64;
constexpr std::size_t kPartitionBytes = 64 * KiB;
constexpr int kRounds = 6;

struct Wave {
  Duration offset;        // virtual-time release offset within the round
  std::size_t first;      // contiguous partition block [first, first+count)
  std::size_t count;
};

// Bursty-tail schedule on a msec(1) learning grid: seven head waves
// inside the first quantum, one straggler block 6 ms out.
std::vector<Wave> bursty_waves() {
  std::vector<Wave> waves;
  for (std::size_t w = 0; w < 7; ++w) {
    waves.push_back({static_cast<Duration>(w) * usec(30), w * 8, 8});
  }
  waves.push_back({msec(6), 56, 8});
  return waves;
}

struct PlanSnapshot {
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> counts;
  Duration delta = 0;
  std::size_t tp = 0;
  std::uint64_t replans = 0;
  std::size_t epochs = 0;
  bool operator==(const PlanSnapshot&) const = default;
};

PlanSnapshot run_with_producers(int producers) {
  model::ArrivalLearnConfig cfg;
  cfg.quantum = msec(1);
  part::Options opts = test::learning_options(msec(4), cfg);

  backend::DesBackend des(mpi::backend_config(mpi::WorldOptions{}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, mpi::WorldOptions{});
  std::vector<std::byte> sbuf(kPartitions * kPartitionBytes);
  std::vector<std::byte> rbuf(kPartitions * kPartitionBytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::psend_init(world.rank(0), sbuf, kPartitions,
                                    /*dst=*/1, /*tag=*/0, /*comm=*/0, opts,
                                    &send)));
  PARTIB_ASSERT(ok(part::precv_init(world.rank(1), rbuf, kPartitions,
                                    /*src=*/0, /*tag=*/0, /*comm=*/0, opts,
                                    &recv)));
  engine.run();  // settle handshakes

  ShardedProgressEngine::Config rt_cfg;
  rt_cfg.shards = 2;
  ShardedProgressEngine rt(rt_cfg);
  rt.add_channel(send.get(), recv.get());

  const std::vector<Wave> waves = bursty_waves();
  for (int round = 1; round <= kRounds; ++round) {
    test::fill_pattern(sbuf, round);
    PARTIB_ASSERT(ok(send->start()));
    PARTIB_ASSERT(ok(recv->start()));
    rt.begin_round();

    std::atomic<int> release{-1};
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
      threads.emplace_back([&, t] {
        ProducerHandle h(rt, static_cast<std::uint32_t>(t));
        for (std::size_t w = 0; w < waves.size(); ++w) {
          while (release.load(std::memory_order_acquire) <
                 static_cast<int>(w)) {
            std::this_thread::yield();
          }
          // This thread's slice of the wave, strided so every producer
          // count exercises real cross-thread interleaving.
          for (std::size_t i = static_cast<std::size_t>(t);
               i < waves[w].count;
               i += static_cast<std::size_t>(producers)) {
            h.pready(0, waves[w].first + i);
          }
          h.flush();  // publish before signalling the wave done
          done.fetch_add(1, std::memory_order_release);
        }
      });
    }

    const Time t0 = engine.now();
    for (std::size_t w = 0; w < waves.size(); ++w) {
      // Advance virtual time to the wave's offset (firing any due group
      // timers and wire events), release the wave, wait for every
      // producer to publish, then apply the claims while now() still
      // reads the wave's exact offset — the profile records the same
      // virtual arrival time no matter how many threads raced.
      engine.run_until(t0 + waves[w].offset);
      release.store(static_cast<int>(w), std::memory_order_release);
      const int target = static_cast<int>(w + 1) * producers;
      while (done.load(std::memory_order_acquire) < target) {
        std::this_thread::yield();
      }
      rt.drain();
    }
    for (auto& th : threads) th.join();
    pump_until(engine, rt,
               [&] { return send->test() && recv->test(); });
    EXPECT_TRUE(test::buffers_equal(sbuf, rbuf))
        << "producers=" << producers << " round=" << round;
  }

  PlanSnapshot snap;
  snap.firsts.assign(send->group_firsts().begin(),
                     send->group_firsts().end());
  snap.counts.assign(send->group_counts().begin(),
                     send->group_counts().end());
  snap.delta = send->plan().timer_delta;
  snap.tp = send->transport_partitions();
  snap.replans = send->replans_adopted();
  snap.epochs = send->profile_epochs();
  return snap;
}

TEST(LearningInvariance, LearnedPlanIsIdenticalAcross1And4And16Producers) {
  const PlanSnapshot one = run_with_producers(1);
  const PlanSnapshot four = run_with_producers(4);
  const PlanSnapshot sixteen = run_with_producers(16);

  // The schedule actually taught the sender something: warm profile and
  // at least one adopted replan isolating the straggler block.
  EXPECT_GE(one.epochs, static_cast<std::size_t>(kRounds - 1));
  EXPECT_GE(one.replans, 1u);
  EXPECT_GT(one.firsts.size(), 1u);

  EXPECT_EQ(four, one) << "4 producers learned a different plan";
  EXPECT_EQ(sixteen, one) << "16 producers learned a different plan";
}

}  // namespace
}  // namespace partib::runtime

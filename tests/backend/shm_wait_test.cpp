// The shm backend's wait policy: an idle ShmBackend::run_until_idle pass
// waits for the next deadline (engine timer or transport fault hold).
// Short waits are busy-polled and long ones are slept through.  These
// tests hold both halves:
//
//   * long waits sleep: a 10 ms timer and a >= 5 ms kDelay hold complete
//     no earlier than their deadline while the pump's thread CPU stays
//     at most half of the wall time it waited;
//   * short waits spin: a 32 x 64 B partitioned round, whose waits are
//     sub-microsecond host-cost timers, takes well under one timer-slack
//     nap (~60 us) at the median;
//   * nothing else spins while the pump sleeps: after a 32 x 64 KiB round
//     has started the DMA engine's helper threads, a long idle wait costs
//     the whole process at most half a core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ctime>
#include <memory>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "backend/shm/shm_backend.hpp"
#include "common/units.hpp"
#include "fabric/fault.hpp"
#include "fabric/rdma_op.hpp"
#include "model/loggp.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"

namespace partib::backend {
namespace {

/// CPU time consumed by the calling thread, in ns.
Time thread_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Time>(ts.tv_sec) * kSecond +
         static_cast<Time>(ts.tv_nsec);
}

/// CPU time consumed by every thread of the process, in ns.
Time process_cpu_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Time>(ts.tv_sec) * kSecond +
         static_cast<Time>(ts.tv_nsec);
}

/// Thread CPU and backend wall time spent in one run_until_idle call.
struct Drain {
  Time wall = 0;
  Time cpu = 0;
};

Drain drain(Backend& be) {
  const Time wall0 = be.now();
  const Time cpu0 = thread_cpu_ns();
  be.run_until_idle();
  return {be.now() - wall0, thread_cpu_ns() - cpu0};
}

/// A 32-partition PLogGP channel from rank 0 to rank 1.
struct Channel {
  static constexpr std::size_t kPartitions = 32;
  std::vector<std::byte> sbuf, rbuf;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

void open_channel(Backend& be, mpi::World& world, std::size_t partition_bytes,
                  Channel* ch) {
  ch->sbuf.resize(Channel::kPartitions * partition_bytes);
  ch->rbuf.resize(ch->sbuf.size());
  part::Options opts;
  opts.aggregator = std::make_shared<agg::PLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured());
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), ch->sbuf,
                                  Channel::kPartitions, 1, 0, 0, opts,
                                  &ch->send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), ch->rbuf,
                                  Channel::kPartitions, 0, 0, 0, opts,
                                  &ch->recv)));
  be.run_until_idle();  // handshake
}

/// One round: fill, start both sides, Pready every partition, drain.
/// Returns the round's duration.
Time run_round(Backend& be, Channel& ch, int r) {
  std::fill(ch.sbuf.begin(), ch.sbuf.end(), static_cast<std::byte>(r));
  const Time t0 = be.now();
  EXPECT_TRUE(ok(ch.send->start()));
  EXPECT_TRUE(ok(ch.recv->start()));
  for (std::size_t i = 0; i < Channel::kPartitions; ++i) {
    EXPECT_TRUE(ok(ch.send->pready(i)));
  }
  be.run_until_idle();
  const Time elapsed = be.now() - t0;
  EXPECT_TRUE(ch.send->test() && ch.recv->test());
  EXPECT_EQ(ch.rbuf, ch.sbuf) << "round " << r;
  return elapsed;
}

TEST(ShmWait, LongTimerSleepsUntilItsDeadline) {
  auto be = make_backend("shm");
  ASSERT_NE(be, nullptr);
  const Time deadline = be->now() + msec(10);
  Time fired = -1;
  be->engine().schedule_at(deadline, [&] { fired = be->now(); });
  const Drain d = drain(*be);
  EXPECT_GE(fired, deadline);
  EXPECT_LE(d.cpu * 2, d.wall) << "cpu " << d.cpu << " ns, wall " << d.wall;
}

TEST(ShmWait, LongFaultHoldSleepsUntilDelivery) {
  // Every post draws a kDelay hold uniform in [1, 20 ms]; take the first
  // seed whose first draw (ordinal 0, this test's one op) is >= 5 ms.
  fabric::FaultPlanConfig faults;
  faults.delay_rate = 1.0;
  faults.max_delay = msec(20);
  Duration hold = 0;
  do {
    ++faults.seed;
    hold = fabric::FaultPlan(faults).decide(0).delay;
  } while (hold < msec(5));
  Config cfg;
  cfg.faults = faults;
  auto be = make_backend("shm", cfg);
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  const fabric::NodeId a = t.add_node();
  const fabric::NodeId b = t.add_node();
  Time recvd = -1;
  int failed = 0;
  fabric::RdmaOp op;
  op.src = a;
  op.dst = b;
  op.src_qp = 1;
  op.bytes = 64;
  op.on_recv_complete = [&](Time now) { recvd = now; };
  op.on_failed = [&](Time, fabric::OpFailure) { ++failed; };
  const Time posted = be->now();
  t.post_rdma_write(std::move(op));
  const Drain d = drain(*be);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(t.stats().faults_injected, 1u);
  EXPECT_GE(recvd, posted + hold);
  EXPECT_LE(d.cpu * 2, d.wall) << "cpu " << d.cpu << " ns, wall " << d.wall;
}

TEST(ShmWait, SmallPartitionedRoundSpinsThroughShortWaits) {
  constexpr int kRounds = 200;
  auto be = make_backend("shm");
  ASSERT_NE(be, nullptr);
  mpi::World world(*be, {});
  Channel ch;
  ASSERT_NO_FATAL_FAILURE(open_channel(*be, world, 64, &ch));
  std::vector<Time> rounds;
  for (int r = 0; r < kRounds; ++r) {
    rounds.push_back(run_round(*be, ch, r));
    ASSERT_FALSE(HasFailure()) << "round " << r;
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2,
                   rounds.end());
  EXPECT_LT(rounds[kRounds / 2], usec(30));
}

TEST(ShmWait, IdleWaitAfterLargeRoundCostsUnderHalfACore) {
  auto be = make_backend("shm");
  ASSERT_NE(be, nullptr);
  mpi::World world(*be, {});
  Channel ch;
  ASSERT_NO_FATAL_FAILURE(open_channel(*be, world, 64 * KiB, &ch));
  run_round(*be, ch, 1);
  ASSERT_FALSE(HasFailure());
  // The round's writes are large enough to split, so the helpers are up.
  const DmaEngine& dma = static_cast<ShmBackend&>(*be).shm().dma();
  ASSERT_EQ(dma.started(), dma.max_helpers());

  const Time wall0 = be->now();
  const Time cpu0 = process_cpu_ns();
  be->engine().schedule_at(wall0 + msec(20), [] {});
  be->run_until_idle();
  const Time wall = be->now() - wall0;
  const Time cpu = process_cpu_ns() - cpu0;
  EXPECT_GE(wall, msec(20));
  EXPECT_LE(cpu * 2, wall) << "cpu " << cpu << " ns, wall " << wall;
}

}  // namespace
}  // namespace partib::backend

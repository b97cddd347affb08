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
//     nap (~60 us) at the median.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ctime>
#include <memory>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
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
  constexpr std::size_t kPartitions = 32;
  constexpr std::size_t kPartitionBytes = 64;
  constexpr int kRounds = 200;
  auto be = make_backend("shm");
  ASSERT_NE(be, nullptr);
  mpi::World world(*be, {});
  std::vector<std::byte> sbuf(kPartitions * kPartitionBytes);
  std::vector<std::byte> rbuf(sbuf.size());
  part::Options opts;
  opts.aggregator = std::make_shared<agg::PLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured());
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, kPartitions, 1, 0, 0,
                                  opts, &send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, kPartitions, 0, 0, 0,
                                  opts, &recv)));
  be->run_until_idle();  // handshake
  std::vector<Time> rounds;
  for (int r = 0; r < kRounds; ++r) {
    std::fill(sbuf.begin(), sbuf.end(), static_cast<std::byte>(r));
    const Time t0 = be->now();
    ASSERT_TRUE(ok(send->start()));
    ASSERT_TRUE(ok(recv->start()));
    for (std::size_t i = 0; i < kPartitions; ++i) {
      ASSERT_TRUE(ok(send->pready(i)));
    }
    be->run_until_idle();
    rounds.push_back(be->now() - t0);
    ASSERT_TRUE(send->test() && recv->test());
    ASSERT_EQ(rbuf, sbuf) << "round " << r;
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2,
                   rounds.end());
  EXPECT_LT(rounds[kRounds / 2], usec(30));
}

}  // namespace
}  // namespace partib::backend

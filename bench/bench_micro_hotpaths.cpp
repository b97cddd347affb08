// google-benchmark micro-benchmarks of the library's hot paths: the
// per-partition fast path (imm encode/decode, Pready flag logic), the
// DES engine, the contended-resource models and the fluid network.
// These measure *host* cost of the simulator itself, complementing the
// virtual-time figure benches.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "backend/des_backend.hpp"
#include "backend/shm/spsc_ring.hpp"
#include "common/atomic_bits.hpp"
#include "common/units.hpp"
#include "model/arrival_plan.hpp"
#include "model/loggp.hpp"
#include "part/arrival_profile.hpp"
#include "fabric/fluid_network.hpp"
#include "mpi/conn.hpp"
#include "mpi/matcher.hpp"
#include "mpi/world.hpp"
#include "part/imm.hpp"
#include "part/partitioned.hpp"
#include "runner/runner.hpp"
#include "runtime/bridge.hpp"
#include "runtime/producer.hpp"
#include "runtime/sharded_engine.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/rng.hpp"
#include "verbs/verbs.hpp"

namespace {

using namespace partib;

void BM_ImmEncodeDecode(benchmark::State& state) {
  std::uint32_t i = 0;
  for (auto _ : state) {
    const std::uint32_t imm = part::encode_imm(i & 0xFFFF, (i + 1) & 0xFFFF);
    const part::ImmRange r = part::decode_imm(imm);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_ImmEncodeDecode);

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < events; ++i) {
      engine.schedule_at(static_cast<Time>(i * 7 % 1000), [&sum] { ++sum; });
    }
    engine.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1024)->Arg(16384);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Engine::EventId> ids;
    ids.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(engine.schedule_at(i, [] {}));
    }
    for (const auto& id : ids) engine.cancel(id);
    benchmark::DoNotOptimize(engine.pending());
  }
}
BENCHMARK(BM_EngineCancel);

// The engine traffic sweep3d generates: `pending` events at distinct
// future times, where every dispatch schedules one event and cancels and
// re-arms another, the way ProcessorSharingCpu::reschedule_completion
// moves a CPU's completion when a job arrives.
class DistinctChurn {
 public:
  explicit DistinctChurn(std::size_t pending) : timers_(pending) {
    for (std::size_t lane = 0; lane < pending; ++lane) arm(lane);
  }

  std::size_t run(std::size_t dispatches) {
    budget_ = dispatches;
    return engine_.run();
  }

 private:
  Duration next_delay() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<Duration>(1 + x_ % 65536);
  }

  void arm(std::size_t lane) {
    timers_[lane] =
        engine_.schedule_after(next_delay(), [this, lane] { fire(lane); });
  }

  void fire(std::size_t lane) {
    if (budget_ == 0) return;
    --budget_;
    arm(lane);
    const std::size_t other = x_ % timers_.size();
    if (engine_.cancel(timers_[other])) arm(other);
  }

  sim::Engine engine_;
  std::vector<sim::Engine::EventId> timers_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::size_t budget_ = 0;
};

void BM_EngineDistinctChurn(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDispatches = 16384;
  for (auto _ : state) {
    DistinctChurn churn(pending);
    benchmark::DoNotOptimize(churn.run(kDispatches));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDispatches));
}
BENCHMARK(BM_EngineDistinctChurn)->Arg(256);

void BM_FifoResource(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::FifoResource res(engine, 4);
    std::uint64_t done = 0;
    for (int i = 0; i < 1024; ++i) {
      res.request(100, [&done](Time, Time) { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FifoResource);

void BM_ProcessorSharing(benchmark::State& state) {
  const auto jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::ProcessorSharingCpu cpu(engine, 40);
    std::uint64_t done = 0;
    for (int i = 0; i < jobs; ++i) {
      cpu.submit(1000 + i * 13, [&done] { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ProcessorSharing)->Arg(32)->Arg(128);

void BM_FluidNetworkFanIn(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    fabric::FluidNetwork net(engine, 12.1);
    net.set_node_count(flows + 1);
    std::uint64_t done = 0;
    for (int i = 0; i < flows; ++i) {
      net.submit(i + 1, 0, 64.0 * 1024, 11.3,
                 [&done](Time) { ++done; });
    }
    engine.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FluidNetworkFanIn)->Arg(8)->Arg(64)->Arg(1024)->Arg(4096);

void BM_RunnerSweep(benchmark::State& state) {
  // Dispatch overhead of the parallel experiment runner: 256 trials whose
  // body is a tiny 64-event simulation, so thread start-up, index claims
  // and submission-order collection dominate.
  struct Cfg {
    std::uint64_t id = 0;
  };
  std::vector<Cfg> grid(256);
  for (std::size_t i = 0; i < grid.size(); ++i) grid[i].id = i;
  auto trial = [](const Cfg& c) {
    sim::Engine engine;
    std::uint64_t sum = c.id;
    for (int i = 0; i < 64; ++i) {
      engine.schedule_at(static_cast<Time>(i * 7 % 16), [&sum] { ++sum; });
    }
    engine.run();
    return sum;
  };
  runner::RunOptions opts;
  opts.jobs = 4;
  for (auto _ : state) {
    const auto results =
        runner::run_trials<Cfg, std::uint64_t>(grid, trial, opts);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_RunnerSweep);

void BM_PreadyFlush(benchmark::State& state) {
  // The per-MPI_Pready critical path, end to end: flag update, group
  // accounting, WR fill, doorbell, WQE fetch, wire, delivery, CQ poll.
  // 64 partitions at one transport partition each over 4 QPs maximises
  // per-message costs and exercises the WR-slot backlog (16 messages per
  // QP against the ConnectX-5 16-WR cap).
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> sbuf(64 * KiB), rbuf(64 * KiB);
  part::Options opts;
  opts.aggregator = std::make_shared<agg::StaticAggregator>(64, 4);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::psend_init(world.rank(0), sbuf, 64, 1, 0, 0, opts,
                                    &send)));
  PARTIB_ASSERT(ok(part::precv_init(world.rank(1), rbuf, 64, 0, 0, 0, opts,
                                    &recv)));
  engine.run();  // handshake
  for (auto _ : state) {
    PARTIB_ASSERT(ok(send->start()));
    PARTIB_ASSERT(ok(recv->start()));
    for (std::size_t i = 0; i < 64; ++i) {
      PARTIB_ASSERT(ok(send->pready(i)));
    }
    engine.run();
    PARTIB_ASSERT(send->test() && recv->test());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PreadyFlush);

void BM_BackendDispatch(benchmark::State& state) {
  // BM_PreadyFlush's exact workload, but with the backend constructed
  // through the registry and the drive loop going via the virtual
  // run_until_idle() instead of the engine directly.
  // The gate (BENCH_hotpaths.json): <= 1.05x BM_PreadyFlush in the same
  // run — the pluggable-backend indirection must be noise on the data
  // path, because the per-op work (WR fill, wire model, CQ delivery)
  // dwarfs one virtual call per fabric entry point.
  auto be = backend::make_backend("des");
  PARTIB_ASSERT(be != nullptr);
  mpi::World world(*be, {});
  std::vector<std::byte> sbuf(64 * KiB), rbuf(64 * KiB);
  part::Options opts;
  opts.aggregator = std::make_shared<agg::StaticAggregator>(64, 4);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::psend_init(world.rank(0), sbuf, 64, 1, 0, 0, opts,
                                    &send)));
  PARTIB_ASSERT(ok(part::precv_init(world.rank(1), rbuf, 64, 0, 0, 0, opts,
                                    &recv)));
  be->run_until_idle();  // handshake
  for (auto _ : state) {
    PARTIB_ASSERT(ok(send->start()));
    PARTIB_ASSERT(ok(recv->start()));
    for (std::size_t i = 0; i < 64; ++i) {
      PARTIB_ASSERT(ok(send->pready(i)));
    }
    be->run_until_idle();
    PARTIB_ASSERT(send->test() && recv->test());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BackendDispatch);

void BM_ShmRingRoundtrip(benchmark::State& state) {
  // The shm transport's per-op skeleton: one pointer-sized record through
  // the wire ring, one back through the ack ring (a full op round trip
  // minus the memcpy and callbacks).  Single-threaded, so this is the
  // ring arithmetic itself — the inter-thread cache-miss cost shows up in
  // the threaded suites, not here.
  backend::SpscRing<std::uint64_t> wire(1024);
  backend::SpscRing<std::uint64_t> ack(1024);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(wire.try_push(i));
      std::uint64_t v = 0;
      benchmark::DoNotOptimize(wire.try_pop(&v));
      benchmark::DoNotOptimize(ack.try_push(v));
      benchmark::DoNotOptimize(ack.try_pop(&v));
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_ShmRingRoundtrip);

/// Partitioned rounds over the real-time shm backend, the blocks of
/// perfbench's shm-rt workload: 32 partitions from rank 0 to rank 1,
/// PLogGP aggregator, copy_data on.  Start both sides, Pready every
/// partition, drain.
void shm_rounds(benchmark::State& state, std::size_t partition_bytes) {
  auto be = backend::make_backend("shm");
  PARTIB_ASSERT(be != nullptr);
  mpi::World world(*be, {});
  std::vector<std::byte> sbuf(32 * partition_bytes), rbuf(sbuf.size());
  part::Options opts;
  opts.aggregator = std::make_shared<agg::PLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured());
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::psend_init(world.rank(0), sbuf, 32, 1, 0, 0, opts,
                                    &send)));
  PARTIB_ASSERT(ok(part::precv_init(world.rank(1), rbuf, 32, 0, 0, 0, opts,
                                    &recv)));
  be->run_until_idle();  // handshake
  for (auto _ : state) {
    PARTIB_ASSERT(ok(send->start()));
    PARTIB_ASSERT(ok(recv->start()));
    for (std::size_t i = 0; i < 32; ++i) {
      PARTIB_ASSERT(ok(send->pready(i)));
    }
    be->run_until_idle();
    PARTIB_ASSERT(send->test() && recv->test());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_ShmSmallRound(benchmark::State& state) {
  // 32 x 64 B: the PLogGP aggregator's host-cost timers are
  // sub-microsecond, so the round is dominated by how the pump waits on
  // them (docs/BACKENDS.md, progress discipline).
  shm_rounds(state, 64);
}
BENCHMARK(BM_ShmSmallRound);

void BM_ShmLargeRound(benchmark::State& state) {
  // 32 x 64 KiB: 2 MiB of payload per round, delivered as writes large
  // enough for the transport's DMA engine to split across its helper
  // threads (docs/BACKENDS.md, DMA engine).
  shm_rounds(state, 64 * KiB);
}
BENCHMARK(BM_ShmLargeRound);

void BM_CqPollBurst(benchmark::State& state) {
  // Raw CQE fan-through: push a completion wave, drain it in 16-entry
  // polls (the progress() convention throughout src/part and src/mpi).
  verbs::Cq cq(4096);
  verbs::Wc wcs[16];
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      verbs::Wc wc;
      wc.wr_id = i;
      cq.push(wc);
    }
    std::uint64_t sum = 0;
    int n;
    while ((n = cq.poll(std::span<verbs::Wc>(wcs))) > 0) {
      for (int i = 0; i < n; ++i) sum += wcs[i].wr_id;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_CqPollBurst);

void BM_SrqPollBurst(benchmark::State& state) {
  // SRQ slab turnover at burst rate: post a 256-WR wave, consume it in
  // strict order (what each delivery does on an SRQ-attached QP).  The
  // comparison against BM_CqPollBurst bounds what receive staging through
  // the shared slab costs over a private ring.
  sim::Engine engine;
  fabric::Fabric fab(engine, fabric::NicParams::connectx5_edr());
  verbs::Device dev(fab);
  verbs::Context& ctx = dev.open(fab.add_node());
  verbs::Pd& pd = ctx.alloc_pd();
  verbs::SrqAttrs attrs;
  attrs.max_wr = 4096;
  verbs::Srq& srq = pd.create_srq(attrs);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      verbs::RecvWr wr;
      wr.wr_id = i;
      PARTIB_ASSERT(ok(srq.post_recv(wr)));
    }
    std::uint64_t sum = 0;
    verbs::PostedRecv out;
    while (srq.consume(&out)) sum += out.wr.wr_id;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_SrqPollBurst);

void BM_SharedCqDemux(benchmark::State& state) {
  // The connection manager's completion fan-out: 256 CQEs round-robined
  // across 16 real one-QP connections, drained by ConnectionManager::drain
  // through each QP's context.  The acceptance bar is <= 1.15x
  // BM_CqPollBurst — demux must cost no more than a bounds-checked array
  // index over the raw drain.
  mpi::WorldOptions wopts;
  wopts.ranks = 2;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);
  mpi::ConnectionManager& mgr = world.rank(0).connections();
  std::vector<mpi::ConnectionManager::ConnId> ids;
  for (std::uint64_t token = 0; token < 16; ++token) {
    world.rank(1).connections().expect(
        token, [](mpi::ConnectionManager::Connection&) {});
    ids.push_back(
        mgr.connect(1, 1, token, [](mpi::ConnectionManager::Connection&) {}));
  }
  des.run_until_idle();
  std::uint64_t sum = 0;
  std::vector<std::uint32_t> qp_nums;
  for (const auto id : ids) {
    mpi::ConnectionManager::Connection& conn = mgr.connection(id);
    conn.on_wc = [&sum](const verbs::Wc& wc) { sum += wc.wr_id; };
    qp_nums.push_back(conn.qps[0]->qp_num());
  }
  // Pushes go straight into the ring, as in BM_CqPollBurst: no dispatch
  // event is scheduled, the loop calls the drain itself.
  mgr.cq().set_on_push(nullptr);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      verbs::Wc wc;
      wc.wr_id = i;
      wc.qp_num = qp_nums[i % 16];
      mgr.cq().push(wc);
    }
    const int n = mgr.drain();
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          256);
}
BENCHMARK(BM_SharedCqDemux);

void BM_IncastHandshake(benchmark::State& state) {
  // Channel setup at the incast hot rank, no rounds: N shared-mode
  // Psend_init/Precv_init pairs into rank 0 (N handshakes through rank
  // 0's InitMatcher), then every sender establishes its connection the
  // way its first post would — connect() with the receiver request as
  // the accept token — and sets its chain's completion handler, so rank 0
  // takes N slots.  World construction and teardown are included.
  const int peers = static_cast<int>(state.range(0));
  // bench_incast's shared-mode channel: 16 KiB, 8 user partitions
  // aggregated to 4 on one QP.
  part::Options opts;
  opts.aggregator = std::make_shared<agg::StaticAggregator>(4, 1);
  opts.shared_resources = true;
  std::vector<std::byte> buf(16 * KiB);
  for (auto _ : state) {
    mpi::WorldOptions wopts;
    wopts.ranks = peers + 1;
    wopts.copy_data = false;
    backend::DesBackend des(mpi::backend_config(wopts));
    mpi::World world(des, wopts);
    std::vector<std::unique_ptr<part::PsendRequest>> sends(
        static_cast<std::size_t>(peers));
    std::vector<std::unique_ptr<part::PrecvRequest>> recvs(sends.size());
    for (int p = 0; p < peers; ++p) {
      const auto i = static_cast<std::size_t>(p);
      PARTIB_ASSERT(ok(part::psend_init(world.rank(p + 1), buf, 8, 0, p, 0,
                                        opts, &sends[i])));
      PARTIB_ASSERT(ok(part::precv_init(world.rank(0), buf, 8, p + 1, p, 0,
                                        opts, &recvs[i])));
    }
    des.run_until_idle();  // handshakes and acks
    for (int p = 0; p < peers; ++p) {
      mpi::ConnectionManager& mgr = world.rank(p + 1).connections();
      mgr.connect(0, /*qp_count=*/1,
                  reinterpret_cast<std::uint64_t>(
                      recvs[static_cast<std::size_t>(p)].get()),
                  [](mpi::ConnectionManager::Connection& conn) {
                    conn.on_wc = [](const verbs::Wc&) {};
                  });
    }
    des.run_until_idle();  // connection establishment
    benchmark::DoNotOptimize(
        world.rank(0).connections().total_establishments());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          peers);
}
BENCHMARK(BM_IncastHandshake)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_QpLookup(benchmark::State& state) {
  // Device-wide qp_num -> Qp resolution (the per-delivery lookup a real
  // RDMA target performs per incoming packet stream).
  sim::Engine engine;
  fabric::Fabric fab(engine, fabric::NicParams::connectx5_edr());
  const fabric::NodeId node = fab.add_node();
  verbs::Device dev(fab);
  verbs::Context& ctx = dev.open(node);
  verbs::Pd& pd = ctx.alloc_pd();
  verbs::Cq& cq = ctx.create_cq(64);
  std::vector<std::uint32_t> nums;
  for (int i = 0; i < 64; ++i) {
    nums.push_back(pd.create_qp(cq, cq).qp_num());
  }
  // Pseudo-random probe order, fixed across iterations.
  std::vector<std::uint32_t> order;
  for (std::size_t i = 0; i < 256; ++i) {
    order.push_back(nums[(i * 37) % nums.size()]);
  }
  for (auto _ : state) {
    std::uintptr_t sum = 0;
    for (const std::uint32_t num : order) {
      sum += wire_addr(dev.find_qp(num));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_QpLookup);

void BM_MatcherChurn(benchmark::State& state) {
  // Psend_init/Precv_init pairing at channel-setup rate: half the pairs
  // recv-first, half send-first, interleaved across 8 distinct keys.
  for (auto _ : state) {
    mpi::InitMatcher m;
    std::uint64_t matched = 0;
    for (int i = 0; i < 64; ++i) {
      mpi::SendInit si;
      si.key = mpi::MatchKey{i % 8, i / 8, 0};
      si.qp_nums = {1, 2};
      if (i % 2 == 0) {
        m.post_recv_init(si.key,
                         [&matched](const mpi::SendInit&) { ++matched; });
        m.on_send_init(si);
      } else {
        m.on_send_init(si);
        m.post_recv_init(si.key,
                         [&matched](const mpi::SendInit&) { ++matched; });
      }
    }
    benchmark::DoNotOptimize(matched);
    benchmark::DoNotOptimize(m.pending_recvs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MatcherChurn);

void BM_ArrivalReplan(benchmark::State& state) {
  // The full epoch-boundary replan psend pays at MPI_Start once the
  // arrival profile is warm: plan_from_arrivals scores every uniform
  // power-of-two candidate plus the clustered cut layout, and the
  // incumbent is re-predicted for the hysteresis compare.  The arrival
  // vector is the hard case — a tight head ramp with an index-contiguous
  // straggler cluster, so the cut path runs too.  The acceptance bar is
  // <= 2 us at 64 partitions (BENCH_hotpaths.json): a replan must stay
  // invisible next to the multi-millisecond epoch it plans.
  const model::LogGPParams p = model::LogGPParams::niagara_mpi_measured();
  model::ArrivalLearnConfig cfg;
  model::ArrivalPlanScratch scratch;
  scratch.reserve(64);
  Duration arrival[64];
  for (std::size_t i = 0; i < 56; ++i) {
    arrival[i] = (usec(120) * static_cast<Duration>(i)) / 55;
  }
  for (std::size_t i = 56; i < 64; ++i) {
    arrival[i] = msec(5) + (usec(600) * static_cast<Duration>(i - 56)) / 7;
  }
  std::size_t gf[64];
  std::size_t gc[64];
  std::size_t inc_first[1] = {0};
  std::size_t inc_count[1] = {64};
  for (auto _ : state) {
    const model::ArrivalPlanResult r = model::plan_from_arrivals(
        p, std::size_t{64} << 20, arrival, 64, cfg, gf, gc, scratch);
    const Duration incumbent = model::predict_grouped_completion(
        p, (std::size_t{64} << 20) / 64, arrival, inc_first, inc_count, 1,
        msec(4), scratch);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(incumbent);
  }
}
BENCHMARK(BM_ArrivalReplan);

void BM_ArrivalProfilePublish(benchmark::State& state) {
  // What learning adds to the Pready critical path: record() is one
  // branch plus a plain store into fixed storage, folded into EWMAs only
  // at the epoch boundary.  The acceptance bar is <= 1.15x
  // BM_ArrivedMirrorStore — recording an arrival offset must cost no more
  // than the arrived-mirror publish that already sits on the same path.
  part::ArrivalProfile prof;
  prof.init(64, model::ArrivalLearnConfig{});
  Time now = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < 64; ++i) {
      prof.record(i, now + static_cast<Time>(i) * 1000);
    }
    now += msec(1);
    benchmark::DoNotOptimize(prof.predicted());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ArrivalProfilePublish);

void BM_ArrivedMirrorStore(benchmark::State& state) {
  // Sibling gate for BM_ArrivalProfilePublish: the PR 7 arrived-mirror
  // publish (one release bit-or per Pready) over the same 64 partitions.
  std::uint64_t words[1] = {0};
  for (auto _ : state) {
    for (std::size_t i = 0; i < 64; ++i) {
      atomic_publish_bit(words, i);
    }
    benchmark::DoNotOptimize(words[0]);
    words[0] = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ArrivedMirrorStore);

// -- threaded pready throughput (docs/THREADING.md) --------------------------
//
// N persistent producer threads each own one channel of kRigPartitions
// partitions; a timed "round" is every producer marking its whole channel
// ready through the runtime.  Sharded mode measures the claim + MPSC
// hand-off fast path (the bridge drain and the DES completion run in the
// untimed gap); serialized mode is the big-lock baseline — one global
// mutex, full Pready apply inside every call — which is what a naive
// MPI_THREAD_MULTIPLE implementation does.  The reported ns/op is the
// aggregate per-call cost across all producers (real time).
class PreadyRig {
 public:
  static constexpr std::size_t kRigPartitions = 4096;

  PreadyRig(int producers, runtime::ShardedProgressEngine::Mode mode)
      : producers_(producers) {
    part::Options opts;
    // 256 transport partitions (group of 16): the paper's mid-range
    // aggregation, so a realistic share of calls completes a group and
    // pays staging + doorbell work — on the producer in serialized mode,
    // on the bridge in sharded mode.
    opts.aggregator = std::make_shared<agg::StaticAggregator>(256, 1);
    sbufs_.resize(static_cast<std::size_t>(producers));
    rbufs_.resize(static_cast<std::size_t>(producers));
    sends_.resize(static_cast<std::size_t>(producers));
    recvs_.resize(static_cast<std::size_t>(producers));
    for (int t = 0; t < producers; ++t) {
      const auto i = static_cast<std::size_t>(t);
      sbufs_[i].resize(kRigPartitions * 16);
      rbufs_[i].resize(kRigPartitions * 16);
      PARTIB_ASSERT(ok(part::psend_init(world_.rank(0), sbufs_[i],
                                        kRigPartitions, 1, t, 0, opts,
                                        &sends_[i])));
      PARTIB_ASSERT(ok(part::precv_init(world_.rank(1), rbufs_[i],
                                        kRigPartitions, 0, t, 0, opts,
                                        &recvs_[i])));
    }
    engine_.run();  // settle handshakes

    runtime::ShardedProgressEngine::Config cfg;
    cfg.shards = 4;
    cfg.ring_capacity = 8192;
    cfg.mode = mode;
    rt_ = std::make_unique<runtime::ShardedProgressEngine>(cfg);
    if (mode == runtime::ShardedProgressEngine::Mode::kSerialized) {
      // The naive big-lock baseline obeys the MPI progress rule: every
      // call advances the engine while holding the lock.  Sharded mode
      // pays none of this on the producer — the bridge does it.
      rt_->set_serial_progress([this] { engine_.run(); });
    }
    for (int t = 0; t < producers; ++t) {
      const auto i = static_cast<std::size_t>(t);
      rt_->add_channel(sends_[i].get(), recvs_[i].get());
    }
    start_round();
    for (int t = 0; t < producers; ++t) {
      workers_.emplace_back([this, t] { worker(t); });
    }
  }

  ~PreadyRig() {
    stop_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    for (auto& w : workers_) w.join();
  }

  /// Timed: release the producers for one round and wait until every one
  /// has issued its kRigPartitions pready calls.
  void run_claims() {
    done_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    while (done_.load(std::memory_order_acquire) < producers_) {
      std::this_thread::yield();
    }
  }

  /// Untimed: drain, complete the round in the DES, rearm the next one.
  void finish_round() {
    runtime::pump_until(engine_, *rt_, [this] {
      for (std::size_t i = 0; i < sends_.size(); ++i) {
        if (!sends_[i]->test() || !recvs_[i]->test()) return false;
      }
      return true;
    });
    start_round();
  }

 private:
  void start_round() {
    for (std::size_t i = 0; i < sends_.size(); ++i) {
      PARTIB_ASSERT(ok(sends_[i]->start()));
      PARTIB_ASSERT(ok(recvs_[i]->start()));
    }
    rt_->begin_round();
  }

  void worker(int t) {
    std::uint64_t seen = 0;
    for (;;) {
      while (gen_.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      ++seen;
      if (stop_.load(std::memory_order_relaxed)) return;
      const auto ch = static_cast<std::size_t>(t);
      // The intended producer fast path: the per-thread handle coalesces
      // this ascending sweep into a handful of hand-offs (serialized mode
      // degenerates to one locked apply per call — the baseline).
      runtime::ProducerHandle h(*rt_, static_cast<std::uint32_t>(t));
      for (std::size_t p = 0; p < kRigPartitions; ++p) {
        h.pready(ch, p);
      }
      h.flush();
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  static mpi::WorldOptions rig_options() {
    mpi::WorldOptions wopts;
    wopts.copy_data = false;  // host cost of the runtime, not the memcpy
    return wopts;
  }

  int producers_;
  backend::DesBackend des_{mpi::backend_config(rig_options())};
  sim::Engine& engine_ = des_.engine();
  mpi::World world_{des_, rig_options()};
  std::vector<std::vector<std::byte>> sbufs_;
  std::vector<std::vector<std::byte>> rbufs_;
  std::vector<std::unique_ptr<part::PsendRequest>> sends_;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs_;
  std::unique_ptr<runtime::ShardedProgressEngine> rt_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
};

void run_pready_bench(benchmark::State& state, int producers,
                      runtime::ShardedProgressEngine::Mode mode) {
  PreadyRig rig(producers, mode);
  const auto batch = static_cast<std::int64_t>(producers) *
                     static_cast<std::int64_t>(PreadyRig::kRigPartitions);
  while (state.KeepRunningBatch(batch)) {
    rig.run_claims();
    state.PauseTiming();
    rig.finish_round();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ThreadedPready1(benchmark::State& state) {
  run_pready_bench(state, 1, runtime::ShardedProgressEngine::Mode::kSharded);
}
BENCHMARK(BM_ThreadedPready1);

void BM_ThreadedPready4(benchmark::State& state) {
  run_pready_bench(state, 4, runtime::ShardedProgressEngine::Mode::kSharded);
}
BENCHMARK(BM_ThreadedPready4);

void BM_ThreadedPready16(benchmark::State& state) {
  run_pready_bench(state, 16, runtime::ShardedProgressEngine::Mode::kSharded);
}
BENCHMARK(BM_ThreadedPready16);

void BM_SerializedPready1(benchmark::State& state) {
  run_pready_bench(state, 1,
                   runtime::ShardedProgressEngine::Mode::kSerialized);
}
BENCHMARK(BM_SerializedPready1);

void BM_SerializedPready16(benchmark::State& state) {
  run_pready_bench(state, 16,
                   runtime::ShardedProgressEngine::Mode::kSerialized);
}
BENCHMARK(BM_SerializedPready16);

void BM_Rng(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_Rng);

}  // namespace

BENCHMARK_MAIN();

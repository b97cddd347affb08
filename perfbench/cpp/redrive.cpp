#include "redrive.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "fabric/trace.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "runner/fingerprint.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bench = partib::bench;
namespace part = partib::part;
namespace mpi = partib::mpi;
namespace sim = partib::sim;
using partib::Duration;
using partib::Status;
using partib::Time;

namespace {

void need(bool cond, const char* what) {
  if (!cond) throw RedriveError(what);
}

/// Payload storage a copy_data=false trial never reads or writes: left
/// default-initialised, so its pages are never faulted in.
class Untouched {
 public:
  explicit Untouched(std::size_t n) : data_(new std::byte[n]), size_(n) {}
  std::span<std::byte> span() { return {data_.get(), size_}; }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t size_;
};

std::unique_ptr<partib::backend::Backend> open_backend(
    const char* plain, const char* traced, const partib::backend::Config& c,
    Probe* probe) {
  if (probe != nullptr) {
    static const bool registered = [] {
      register_traced_backends();
      return true;
    }();
    (void)registered;
    set_active_probe(probe);
  }
  auto be = partib::backend::make_backend(probe != nullptr ? traced : plain, c);
  need(be != nullptr, "make_backend");
  return be;
}

std::unique_ptr<partib::backend::Backend> open_des(const mpi::WorldOptions& w,
                                                   Probe* probe,
                                                   partib::fabric::TraceSink* sink) {
  partib::backend::Config c;
  c.nic = w.nic;
  c.copy_data = w.copy_data;
  c.faults = w.faults;
  auto be = open_backend("des", "traced-des", c, probe);
  if (probe != nullptr) be->transport().set_trace(sink);
  return be;
}

Status start(Probe* probe, part::PsendRequest& r) {
  Span s(probe, Bucket::kStart);
  return r.start();
}
Status start(Probe* probe, part::PrecvRequest& r) {
  Span s(probe, Bucket::kStart);
  return r.start();
}
Status pready(Probe* probe, part::PsendRequest& r, std::size_t i) {
  Span s(probe, Bucket::kPready);
  return r.pready(i);
}

void add(partib::fabric::FabricStats& a, const partib::fabric::FabricStats& b) {
  a.rdma_ops += b.rdma_ops;
  a.control_msgs += b.control_msgs;
  a.payload_bytes += b.payload_bytes;
  a.wire_bytes += b.wire_bytes;
  a.faults_injected += b.faults_injected;
  a.retransmits += b.retransmits;
  a.failed_ops += b.failed_ops;
}

/// Read the library's own counters once the trial has drained.
void collect(partib::backend::Backend& be, mpi::World& world,
             const partib::fabric::TraceSink& sink, TrialLayers* layers) {
  add(layers->fabric, be.transport().stats());
  for (const partib::fabric::TraceRecord& r : sink.records()) {
    if (r.wqe_grant < 0 || r.wire_start < 0 || r.wire_end < 0) continue;
    ++layers->traced_ops;
    layers->wqe_wait_ns += r.wqe_grant - r.posted;
    layers->queue_wait_ns += r.wire_start - r.wqe_grant;
    layers->wire_ns += r.wire_time();
  }
  const partib::verbs::ResourceFootprint fp =
      world.rank(0).context().footprint();
  layers->hot.qps += fp.qps;
  layers->hot.cqs += fp.cqs;
  layers->hot.srqs += fp.srqs;
  layers->hot.provisioned_bytes += fp.provisioned_bytes;
  layers->hot.resident_bytes += fp.resident_bytes;
  if (world.rank(0).has_connections()) {
    const mpi::ConnectionManager& mgr = world.rank(0).connections();
    layers->establishments += mgr.total_establishments();
    layers->recycles += mgr.total_recycles();
  }
}

void count_sender(const part::PsendRequest& s, std::uint64_t rounds,
                  TrialLayers* layers) {
  layers->wrs_posted += s.wrs_posted_total();
  layers->replans_adopted += s.replans_adopted();
  layers->sender_rounds += rounds;
}

}  // namespace

TrialLayers& TrialLayers::operator+=(const TrialLayers& o) {
  world_count += o.world_count;
  world_ns += o.world_ns;
  init_ns += o.init_ns;
  inits += o.inits;
  handshake_ns += o.handshake_ns;
  layer_ns += o.layer_ns;
  rounds += o.rounds;
  add(fabric, o.fabric);
  traced_ops += o.traced_ops;
  wqe_wait_ns += o.wqe_wait_ns;
  queue_wait_ns += o.queue_wait_ns;
  wire_ns += o.wire_ns;
  hot.qps += o.hot.qps;
  hot.cqs += o.hot.cqs;
  hot.srqs += o.hot.srqs;
  hot.provisioned_bytes += o.hot.provisioned_bytes;
  hot.resident_bytes += o.hot.resident_bytes;
  establishments += o.establishments;
  recycles += o.recycles;
  wrs_posted += o.wrs_posted;
  sender_rounds += o.sender_rounds;
  replans_adopted += o.replans_adopted;
  return *this;
}

// -- zoo (mirrors bench::run_zoo) ---------------------------------------------

bench::ZooResult redrive_zoo(const bench::ZooConfig& in, Probe* probe,
                             TrialLayers* layers) {
  const std::int64_t t_begin = now_ns();
  bench::ZooConfig cfg = in;
  if (cfg.seed == 0) {
    cfg.seed = partib::runner::derive_seed(bench::fingerprint(in));
  }
  if (probe != nullptr) cfg.options = traced_options(cfg.options, probe);
  need(cfg.total_bytes > 0 && cfg.user_partitions > 0, "zoo config");
  need(cfg.epochs > cfg.warmup && cfg.warmup >= 0, "zoo epochs");
  cfg.world.ranks = 2;
  cfg.world.copy_data = false;

  partib::fabric::TraceSink sink;
  auto be = open_des(cfg.world, probe, &sink);
  sim::Engine& engine = be->engine();
  std::int64_t t = now_ns();
  mpi::World world(*be, cfg.world);
  layers->world_ns += now_ns() - t;
  ++layers->world_count;

  const std::size_t n = cfg.user_partitions;
  Untouched sbuf(cfg.total_bytes), rbuf(cfg.total_bytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  t = now_ns();
  need(ok(part::psend_init(world.rank(0), sbuf.span(), n, 1, 0, 0,
                           cfg.options, &send)),
       "psend_init");
  need(ok(part::precv_init(world.rank(1), rbuf.span(), n, 0, 0, 0,
                           cfg.options, &recv)),
       "precv_init");
  layers->init_ns += now_ns() - t;
  layers->inits += 2;
  t = now_ns();
  be->run_until_idle();
  layers->handshake_ns += now_ns() - t;
  need(!cfg.oracle || send->plan().learning, "oracle needs a learning plan");

  bench::ZooResult res;
  std::vector<Duration> truth(n);
  double warm_sum = 0.0;
  double all_sum = 0.0;
  double phase_sum[3] = {0.0, 0.0, 0.0};
  int phase_n[3] = {0, 0, 0};
  int warm_n = 0;
  std::uint64_t wrs_at_warm = 0;
  const int measured = cfg.epochs - cfg.warmup;
  bool pready_failed = false;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    bench::zoo_arrivals(cfg.shape, n, cfg.spread, cfg.seed, epoch,
                        cfg.epochs, truth.data());
    if (cfg.oracle) need(ok(send->seed_profile(truth)), "seed_profile");
    if (epoch == cfg.warmup) wrs_at_warm = send->wrs_posted_total();
    need(ok(start(probe, *send)), "psend start");
    need(ok(start(probe, *recv)), "precv start");

    const Time t0 = engine.now();
    Time last_pready = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(
          t0 + truth[i],
          [&engine, &send, &last_pready, &pready_failed, probe, i] {
            last_pready = std::max(last_pready, engine.now());
            if (!ok(pready(probe, *send, i))) pready_failed = true;
          },
          "bench.pready");
    }
    Time recv_done = -1;
    recv->when_complete([&engine, &recv_done] { recv_done = engine.now(); });
    be->run_until_idle();
    need(!pready_failed, "pready");
    need(send->test() && recv->test(), "round incomplete");
    need(recv_done >= last_pready, "receive before last pready");

    const double gbps = static_cast<double>(cfg.total_bytes) /
                        static_cast<double>(recv_done - last_pready);
    all_sum += gbps;
    if (epoch >= cfg.warmup) {
      warm_sum += gbps;
      const int phase = std::min((epoch - cfg.warmup) * 3 / measured, 2);
      phase_sum[phase] += gbps;
      ++phase_n[phase];
      ++warm_n;
    }
  }

  res.warm_gbytes_per_s = warm_sum / std::max(warm_n, 1);
  res.all_gbytes_per_s = all_sum / std::max(cfg.epochs, 1);
  for (int p = 0; p < 3; ++p) {
    res.phase_gbytes_per_s[p] = phase_sum[p] / std::max(phase_n[p], 1);
  }
  res.final_tp = static_cast<std::int64_t>(send->transport_partitions());
  res.final_delta_us = send->plan().timer_based
                           ? partib::to_usec(send->plan().timer_delta)
                           : 0.0;
  res.mean_wrs_per_epoch =
      static_cast<double>(send->wrs_posted_total() - wrs_at_warm) /
      std::max(warm_n, 1);
  res.replans_adopted = static_cast<std::int64_t>(send->replans_adopted());

  count_sender(*send, static_cast<std::uint64_t>(cfg.epochs), layers);
  layers->rounds += static_cast<std::uint64_t>(cfg.epochs);
  collect(*be, world, sink, layers);
  layers->layer_ns += now_ns() - t_begin;
  return res;
}

// -- incast (mirrors bench::run_connscale) ------------------------------------

bench::ConnScaleResult redrive_connscale(const bench::ConnScaleConfig& in,
                                         Probe* probe, TrialLayers* layers) {
  const std::int64_t t_begin = now_ns();
  bench::ConnScaleConfig cfg = in;
  if (cfg.seed == 0) {
    cfg.seed = partib::runner::derive_seed(bench::fingerprint(in));
  }
  if (probe != nullptr) cfg.options = traced_options(cfg.options, probe);
  mpi::WorldOptions wopts = cfg.world;
  wopts.ranks = cfg.alltoall ? cfg.peers : cfg.peers + 1;

  partib::fabric::TraceSink sink;
  auto be = open_des(wopts, probe, &sink);
  sim::Engine& engine = be->engine();
  std::int64_t t = now_ns();
  mpi::World world(*be, wopts);
  layers->world_ns += now_ns() - t;
  ++layers->world_count;

  struct Channel {
    Untouched sbuf;
    Untouched rbuf;
    std::unique_ptr<part::PsendRequest> send;
    std::unique_ptr<part::PrecvRequest> recv;
  };
  std::vector<Channel> channels;
  channels.reserve(cfg.alltoall
                       ? static_cast<std::size_t>(cfg.peers) *
                             static_cast<std::size_t>(cfg.peers - 1)
                       : static_cast<std::size_t>(cfg.peers));
  auto add_channel = [&](int src, int dst, int tag) {
    Channel c{Untouched(cfg.bytes), Untouched(cfg.bytes), nullptr, nullptr};
    const std::int64_t t0 = now_ns();
    need(ok(part::psend_init(world.rank(src), c.sbuf.span(),
                             cfg.user_partitions, dst, tag, /*comm=*/0,
                             cfg.options, &c.send)),
         "psend_init");
    need(ok(part::precv_init(world.rank(dst), c.rbuf.span(),
                             cfg.user_partitions, src, tag, /*comm=*/0,
                             cfg.options, &c.recv)),
         "precv_init");
    layers->init_ns += now_ns() - t0;
    layers->inits += 2;
    channels.push_back(std::move(c));
  };
  if (cfg.alltoall) {
    for (int i = 0; i < cfg.peers; ++i) {
      for (int j = 0; j < cfg.peers; ++j) {
        if (i != j) add_channel(i, j, /*tag=*/j);
      }
    }
  } else {
    for (int p = 0; p < cfg.peers; ++p) add_channel(p + 1, 0, /*tag=*/p);
  }
  t = now_ns();
  be->run_until_idle();
  layers->handshake_ns += now_ns() - t;

  Duration total = 0;
  for (int round = 1; round <= cfg.rounds; ++round) {
    const Time t0 = engine.now();
    for (Channel& c : channels) {
      need(ok(start(probe, *c.send)), "psend start");
      need(ok(start(probe, *c.recv)), "precv start");
    }
    for (Channel& c : channels) {
      for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
        need(ok(pready(probe, *c.send, i)), "pready");
      }
    }
    be->run_until_idle();
    for (Channel& c : channels) {
      need(c.send->test() && c.recv->test(), "round incomplete");
    }
    total += engine.now() - t0;
  }

  bench::ConnScaleResult r;
  r.mean_round = total / std::max(cfg.rounds, 1);
  const partib::verbs::ResourceFootprint fp =
      world.rank(0).context().footprint();
  r.hot_qps = fp.qps;
  r.hot_cqs = fp.cqs;
  r.hot_srqs = fp.srqs;
  r.hot_provisioned_bytes = fp.provisioned_bytes;
  r.hot_resident_bytes = fp.resident_bytes;
  if (world.rank(0).has_connections()) {
    const mpi::ConnectionManager& mgr = world.rank(0).connections();
    r.establishments = mgr.total_establishments();
    r.recycles = mgr.total_recycles();
  }

  for (const Channel& c : channels) {
    count_sender(*c.send, static_cast<std::uint64_t>(cfg.rounds), layers);
  }
  layers->rounds += static_cast<std::uint64_t>(cfg.rounds);
  collect(*be, world, sink, layers);
  layers->layer_ns += now_ns() - t_begin;
  return r;
}

// -- sweep3d (mirrors bench::run_sweep) ---------------------------------------

namespace {

constexpr int kTagEast = 0;
constexpr int kTagSouth = 1;

struct RankState {
  int x = 0;
  int y = 0;
  std::unique_ptr<part::PsendRequest> send_e;
  std::unique_ptr<part::PsendRequest> send_s;
  std::unique_ptr<part::PrecvRequest> recv_w;
  std::unique_ptr<part::PrecvRequest> recv_n;
  std::unique_ptr<sim::Rng> rng;
  int iter = 0;
  int recvs_needed = 0;
  int sends_needed = 0;
  int recvs_done = 0;
  int sends_done = 0;
  std::size_t threads_done = 0;
  bool compute_done = false;
  Time warmup_done_at = -1;
};

struct SweepRun {
  const bench::SweepConfig& cfg;
  sim::Engine& engine;
  mpi::World& world;
  Probe* probe;
  std::vector<RankState> ranks;
  int total_iters;
  int finished_ranks = 0;
  bool failed = false;

  SweepRun(const bench::SweepConfig& c, sim::Engine& e, mpi::World& w,
           Probe* p)
      : cfg(c), engine(e), world(w), probe(p),
        ranks(static_cast<std::size_t>(c.px * c.py)),
        total_iters(c.warmup + c.iterations) {}

  int rank_id(int x, int y) const { return y * cfg.px + x; }
  void check(Status s) {
    if (!ok(s)) failed = true;
  }

  void begin_iteration(RankState& r) {
    r.recvs_done = 0;
    r.sends_done = 0;
    r.threads_done = 0;
    r.compute_done = false;
    auto on_recv = [this, &r] {
      if (++r.recvs_done == r.recvs_needed) start_compute(r);
    };
    if (r.recv_w) {
      check(start(probe, *r.recv_w));
      r.recv_w->when_complete(on_recv);
    }
    if (r.recv_n) {
      check(start(probe, *r.recv_n));
      r.recv_n->when_complete(on_recv);
    }
    auto on_send = [this, &r] {
      ++r.sends_done;
      maybe_finish_iteration(r);
    };
    if (r.send_e) {
      check(start(probe, *r.send_e));
      r.send_e->when_complete(on_send);
    }
    if (r.send_s) {
      check(start(probe, *r.send_s));
      r.send_s->when_complete(on_send);
    }
    if (r.recvs_needed == 0) start_compute(r);
  }

  void start_compute(RankState& r) {
    const std::size_t n = cfg.threads;
    const auto laggard = static_cast<std::size_t>(
        r.rng->uniform_int(0, static_cast<std::int64_t>(n) - 1));
    sim::ArrivalPattern pattern =
        sim::many_before_one(n, cfg.compute, cfg.noise, laggard);
    const Duration span = cfg.jitter_per_thread * static_cast<Duration>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != laggard) {
        pattern[i] += static_cast<Duration>(
            r.rng->uniform(0.0, static_cast<double>(span)));
      }
    }
    mpi::Rank& mr = world.rank(rank_id(r.x, r.y));
    for (std::size_t i = 0; i < n; ++i) {
      mr.cpu().submit(pattern[i], [this, &r, i] {
        if (r.send_e) check(pready(probe, *r.send_e, i));
        if (r.send_s) check(pready(probe, *r.send_s, i));
        if (++r.threads_done == cfg.threads) {
          r.compute_done = true;
          maybe_finish_iteration(r);
        }
      });
    }
  }

  void maybe_finish_iteration(RankState& r) {
    if (!r.compute_done || r.sends_done != r.sends_needed ||
        r.recvs_done != r.recvs_needed) {
      return;
    }
    ++r.iter;
    if (r.iter == cfg.warmup) r.warmup_done_at = engine.now();
    if (r.iter < total_iters) {
      begin_iteration(r);
    } else {
      ++finished_ranks;
    }
  }
};

}  // namespace

bench::SweepResult redrive_sweep(const bench::SweepConfig& in, Probe* probe,
                                 TrialLayers* layers) {
  const std::int64_t t_begin = now_ns();
  bench::SweepConfig cfg = in;
  if (cfg.seed == 0) {
    cfg.seed = partib::runner::derive_seed(bench::fingerprint(in));
  }
  if (probe != nullptr) cfg.options = traced_options(cfg.options, probe);
  need(cfg.px >= 1 && cfg.py >= 1 && cfg.message_bytes > 0, "sweep config");
  cfg.world.ranks = cfg.px * cfg.py;
  cfg.world.copy_data = false;

  partib::fabric::TraceSink sink;
  auto be = open_des(cfg.world, probe, &sink);
  sim::Engine& engine = be->engine();
  std::int64_t t = now_ns();
  mpi::World world(*be, cfg.world);
  layers->world_ns += now_ns() - t;
  ++layers->world_count;

  SweepRun run(cfg, engine, world, probe);
  // One shared backing allocation, as in the trial form.
  Untouched shared_buffer(cfg.message_bytes);

  t = now_ns();
  for (int y = 0; y < cfg.py; ++y) {
    for (int x = 0; x < cfg.px; ++x) {
      RankState& r = run.ranks[static_cast<std::size_t>(run.rank_id(x, y))];
      r.x = x;
      r.y = y;
      r.rng = std::make_unique<sim::Rng>(
          cfg.seed ^ (static_cast<std::uint64_t>(run.rank_id(x, y)) * 0x9E37u));
      mpi::Rank& mr = world.rank(run.rank_id(x, y));
      if (x + 1 < cfg.px) {
        need(ok(part::psend_init(mr, shared_buffer.span(), cfg.threads,
                                 run.rank_id(x + 1, y), kTagEast, 0,
                                 cfg.options, &r.send_e)),
             "psend_init");
        ++r.sends_needed;
        ++layers->inits;
      }
      if (y + 1 < cfg.py) {
        need(ok(part::psend_init(mr, shared_buffer.span(), cfg.threads,
                                 run.rank_id(x, y + 1), kTagSouth, 0,
                                 cfg.options, &r.send_s)),
             "psend_init");
        ++r.sends_needed;
        ++layers->inits;
      }
      if (x > 0) {
        need(ok(part::precv_init(mr, shared_buffer.span(), cfg.threads,
                                 run.rank_id(x - 1, y), kTagEast, 0,
                                 cfg.options, &r.recv_w)),
             "precv_init");
        ++r.recvs_needed;
        ++layers->inits;
      }
      if (y > 0) {
        need(ok(part::precv_init(mr, shared_buffer.span(), cfg.threads,
                                 run.rank_id(x, y - 1), kTagSouth, 0,
                                 cfg.options, &r.recv_n)),
             "precv_init");
        ++r.recvs_needed;
        ++layers->inits;
      }
    }
  }
  layers->init_ns += now_ns() - t;
  t = now_ns();
  be->run_until_idle();
  layers->handshake_ns += now_ns() - t;

  for (RankState& r : run.ranks) run.begin_iteration(r);
  be->run_until_idle();
  need(!run.failed, "sweep start/pready");
  need(run.finished_ranks == cfg.px * cfg.py, "sweep ranks unfinished");

  Time warmup_done = 0;
  for (const RankState& r : run.ranks) {
    need(r.warmup_done_at >= 0 || cfg.warmup == 0, "sweep warm-up");
    warmup_done = std::max(warmup_done, r.warmup_done_at);
  }

  bench::SweepResult res;
  res.total_time = engine.now() - warmup_done;
  res.compute_on_path = static_cast<Duration>(cfg.iterations) * cfg.compute;
  res.comm_time = res.total_time - res.compute_on_path;

  const auto iters = static_cast<std::uint64_t>(run.total_iters);
  for (const RankState& r : run.ranks) {
    if (r.send_e) count_sender(*r.send_e, iters, layers);
    if (r.send_s) count_sender(*r.send_s, iters, layers);
  }
  layers->rounds += iters;
  collect(*be, world, sink, layers);
  layers->layer_ns += now_ns() - t_begin;
  return res;
}

// -- shm-rt -------------------------------------------------------------------

ShmChannel::ShmChannel(const std::string& backend_name,
                       std::size_t partition_bytes, Probe* probe)
    : probe_(probe) {
  backend_ = open_backend(backend_name.c_str(),
                          ("traced-" + backend_name).c_str(),
                          partib::backend::Config{}, probe);
  std::int64_t t = now_ns();
  world_ = std::make_unique<mpi::World>(*backend_, mpi::WorldOptions{});
  layers_.world_ns += now_ns() - t;
  ++layers_.world_count;
  sbuf_.resize(kShmPartitions * partition_bytes);
  rbuf_.resize(sbuf_.size());
  part::Options opts;
  opts.aggregator = std::make_shared<partib::agg::PLogGPAggregator>(
      partib::model::LogGPParams::niagara_mpi_measured());
  if (probe != nullptr) opts = traced_options(opts, probe);
  t = now_ns();
  need(ok(part::psend_init(world_->rank(0), sbuf_, kShmPartitions, /*dst=*/1,
                           /*tag=*/0, /*comm=*/0, opts, &send_)),
       "psend_init");
  need(ok(part::precv_init(world_->rank(1), rbuf_, kShmPartitions, /*src=*/0,
                           /*tag=*/0, /*comm=*/0, opts, &recv_)),
       "precv_init");
  layers_.init_ns += now_ns() - t;
  layers_.inits += 2;
  t = now_ns();
  backend_->run_until_idle();  // channel handshake
  layers_.handshake_ns += now_ns() - t;
}

TrialLayers ShmChannel::collect() {
  TrialLayers l = layers_;
  partib::fabric::TraceSink no_trace;
  perfbench::collect(*backend_, *world_, no_trace, &l);
  count_sender(*send_, rounds_, &l);
  l.rounds += rounds_;
  return l;
}

std::int64_t ShmChannel::round(int index) {
  // Every byte changes from one round to the next, so a stale or partial
  // delivery cannot pass the memcmp; the per-partition stamps catch a
  // partition landing at the wrong offset.
  ++rounds_;
  const std::size_t n = kShmPartitions;
  const std::size_t psize = sbuf_.size() / n;
  std::memset(sbuf_.data(), (index * 37 + 11) & 0xFF, sbuf_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t stamp = static_cast<std::uint32_t>(index) * 131u +
                                static_cast<std::uint32_t>(i);
    std::memcpy(sbuf_.data() + i * psize, &stamp,
                std::min(sizeof(stamp), psize));
  }
  const Time t0 = backend_->now();
  if (!ok(start(probe_, *send_)) || !ok(start(probe_, *recv_))) return -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok(pready(probe_, *send_, i))) return -1;
  }
  backend_->run_until_idle();
  const Time elapsed = backend_->now() - t0;
  if (!send_->test() || !recv_->test()) return -1;
  if (std::memcmp(sbuf_.data(), rbuf_.data(), sbuf_.size()) != 0) return -1;
  return elapsed;
}

}  // namespace perfbench

#include "bench/connscale.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "bench/trial_world.hpp"
#include "mpi/conn.hpp"
#include "verbs/verbs.hpp"

namespace partib::bench {

namespace {

struct Channel {
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

}  // namespace

ConnScaleResult run_connscale(backend::Backend& be,
                              const ConnScaleConfig& cfg) {
  mpi::World world(
      be, trial_world(cfg.world, cfg.alltoall ? cfg.peers : cfg.peers + 1));

  // Every channel's send and receive side shares one reservation.
  const TimelineBuffer payload(cfg.bytes);

  std::vector<Channel> channels;
  channels.reserve(cfg.alltoall
                       ? static_cast<std::size_t>(cfg.peers) *
                             static_cast<std::size_t>(cfg.peers - 1)
                       : static_cast<std::size_t>(cfg.peers));
  auto add_channel = [&](int src, int dst, int tag) {
    Channel c;
    PARTIB_ASSERT(ok(part::psend_init(world.rank(src), payload.span(),
                                      cfg.user_partitions, dst, tag,
                                      /*comm=*/0, cfg.options, &c.send)));
    PARTIB_ASSERT(ok(part::precv_init(world.rank(dst), payload.span(),
                                      cfg.user_partitions, src, tag,
                                      /*comm=*/0, cfg.options, &c.recv)));
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
  be.run_until_idle();  // all handshakes

  Duration total = 0;
  for (int round = 1; round <= cfg.rounds; ++round) {
    const Time t0 = be.now();
    for (Channel& c : channels) {
      PARTIB_ASSERT(ok(c.send->start()));
      PARTIB_ASSERT(ok(c.recv->start()));
    }
    for (Channel& c : channels) {
      for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
        PARTIB_ASSERT(ok(c.send->pready(i)));
      }
    }
    be.run_until_idle();
    for (Channel& c : channels) {
      PARTIB_ASSERT(c.send->test() && c.recv->test());
    }
    total += be.now() - t0;
  }

  ConnScaleResult r;
  r.mean_round = total / std::max(cfg.rounds, 1);
  const verbs::ResourceFootprint fp = world.rank(0).context().footprint();
  r.hot_qps = fp.qps;
  r.hot_cqs = fp.cqs;
  r.hot_srqs = fp.srqs;
  r.hot_provisioned_bytes = fp.provisioned_bytes;
  r.hot_resident_bytes = fp.resident_bytes;
  if (world.rank(0).has_connections()) {
    const mpi::ConnectionManager& mgr = world.rank(0).connections();
    r.establishments = mgr.total_establishments();
  }
  return r;
}

ConnScaleResult run_connscale(const ConnScaleConfig& cfg) {
  return on_des(run_connscale, cfg);
}

}  // namespace partib::bench

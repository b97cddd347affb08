// Halo exchange: the 2D stencil pattern the ICPP'22 micro-benchmark suite
// pairs with Sweep3D.  Each rank in a 4x4 grid exchanges one partitioned
// message with each of its four neighbours per iteration; each of the 8
// worker threads owns a slice of every face and marks it ready when its
// strip of the stencil update finishes.
//
// Shows: multiple concurrent channels per rank, bidirectional traffic,
// per-thread Pready across several requests, and the Timer-based PLogGP
// aggregator riding out compute jitter.
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

using namespace partib;

namespace {

constexpr int kGrid = 4;           // 4x4 ranks
constexpr std::size_t kThreads = 8;  // partitions per face message
constexpr std::size_t kFaceBytes = 256 * KiB;
constexpr int kIterations = 3;

int rank_id(int x, int y) { return y * kGrid + x; }

struct Face {
  std::vector<std::byte> sbuf = std::vector<std::byte>(kFaceBytes);
  std::vector<std::byte> rbuf = std::vector<std::byte>(kFaceBytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

struct Node {
  int x = 0, y = 0;
  std::vector<Face> faces;  // one per neighbour
  std::size_t done_recvs = 0;
};

}  // namespace

int main() {
  mpi::WorldOptions wopts;
  wopts.ranks = kGrid * kGrid;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);
  sim::Rng rng(2026);

  part::Options opts;
  opts.aggregator = std::make_shared<agg::TimerPLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured(), usec(35));

  // dx/dy per direction; the tag identifies the direction so a pair of
  // ranks can hold two independent channels.
  const int dirs[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};

  std::vector<Node> nodes(static_cast<std::size_t>(kGrid * kGrid));
  for (int y = 0; y < kGrid; ++y) {
    for (int x = 0; x < kGrid; ++x) {
      Node& node = nodes[static_cast<std::size_t>(rank_id(x, y))];
      node.x = x;
      node.y = y;
      for (int d = 0; d < 4; ++d) {
        const int nx = x + dirs[d][0];
        const int ny = y + dirs[d][1];
        if (nx < 0 || nx >= kGrid || ny < 0 || ny >= kGrid) continue;
        Face face;
        mpi::Rank& me = world.rank(rank_id(x, y));
        // Outgoing face d matches the neighbour's opposite-direction recv;
        // tagging by the *sender's* direction keeps the pair unambiguous.
        if (!ok(part::psend_init(me, face.sbuf, kThreads, rank_id(nx, ny),
                                 /*tag=*/d, 0, opts, &face.send)) ||
            !ok(part::precv_init(me, face.rbuf, kThreads, rank_id(nx, ny),
                                 /*tag=*/d ^ 1, 0, opts, &face.recv))) {
          std::fprintf(stderr, "channel setup failed\n");
          return 1;
        }
        node.faces.push_back(std::move(face));
      }
    }
  }
  des.run_until_idle();  // settle all handshakes

  for (int iter = 0; iter < kIterations; ++iter) {
    const Time t0 = des.now();
    for (Node& node : nodes) {
      for (Face& face : node.faces) {
        (void)face.send->start();
        (void)face.recv->start();
      }
      // 8 worker threads update the stencil interior; thread i owns slice
      // i of every outgoing face and marks them ready as it finishes.
      const auto pattern = sim::many_before_one(
          kThreads, msec(1), /*noise=*/0.04,
          static_cast<std::size_t>(rng.uniform_int(0, kThreads - 1)));
      mpi::Rank& me = world.rank(rank_id(node.x, node.y));
      for (std::size_t i = 0; i < kThreads; ++i) {
        me.cpu().submit(pattern[i], [&node, i] {
          for (Face& face : node.faces) (void)face.send->pready(i);
        });
      }
    }
    des.run_until_idle();  // all faces of all ranks complete

    bool all_done = true;
    for (Node& node : nodes) {
      for (Face& face : node.faces) {
        all_done = all_done && face.send->test() && face.recv->test();
      }
    }
    std::printf("iteration %d: %s in %s\n", iter,
                all_done ? "all faces exchanged" : "INCOMPLETE",
                format_duration(des.now() - t0).c_str());
    if (!all_done) return 1;
  }

  // Count the aggregate wire traffic the Timer aggregator produced.
  std::uint64_t wrs = 0;
  std::size_t channels = 0;
  for (Node& node : nodes) {
    for (Face& face : node.faces) {
      wrs += face.send->wrs_posted_total();
      ++channels;
    }
  }
  std::printf("%zu channels, %llu WRs total (%.1f per channel-iteration; "
              "%zu partitions each without aggregation)\n",
              channels, static_cast<unsigned long long>(wrs),
              static_cast<double>(wrs) /
                  (static_cast<double>(channels) * kIterations),
              kThreads);
  return 0;
}

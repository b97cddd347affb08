// Classic ping-pong over the two-sided eager layer (mpi/p2p.hpp):
// measures half-round-trip latency per message size on the simulated
// fabric — the "hello world" of any MPI-like stack, and a sanity anchor
// for the LogGP parameters every other benchmark builds on.
#include <cstdio>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/p2p.hpp"
#include "mpi/world.hpp"

using namespace partib;

int main() {
  const mpi::WorldOptions wopts;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);
  mpi::P2pEndpoint ep0(world.rank(0));
  mpi::P2pEndpoint ep1(world.rank(1));

  std::printf("%-10s %12s %14s\n", "size", "latency_us", "bandwidth_GB/s");
  for (std::size_t bytes = 8; bytes <= mpi::P2pEndpoint::kEagerLimit;
       bytes *= 4) {
    std::vector<std::byte> msg(bytes), echo(bytes), back(bytes);
    constexpr int kIters = 20;
    int remaining = kIters;
    Time t0 = -1, t1 = -1;

    // Rank 1 echoes exactly kIters pings; rank 0 fires the next ping on
    // each pong.
    for (int i = 0; i < kIters; ++i) {
      (void)ep1.recv(0, 0, echo, [&](std::size_t n) {
        (void)ep1.send(0, 1, std::span<const std::byte>(echo.data(), n));
      });
      (void)ep0.recv(1, 1, back, [&](std::size_t) {
        if (--remaining > 0) {
          (void)ep0.send(1, 0, msg);
        } else {
          t1 = des.now();
        }
      });
    }
    t0 = des.now();
    (void)ep0.send(1, 0, msg);
    des.run_until_idle();

    const double half_rtt_ns =
        static_cast<double>(t1 - t0) / (2.0 * kIters);
    std::printf("%-10s %12.2f %14.2f\n", format_bytes(bytes).c_str(),
                half_rtt_ns / 1000.0,
                static_cast<double>(bytes) / half_rtt_ns);
  }
  return 0;
}

// Quickstart: one partitioned channel between two simulated ranks.
//
// Demonstrates the full lifecycle from the paper's Fig 1:
//   Psend_init/Precv_init -> Start -> per-"thread" Pready ->
//   Parrived/Test on the receiver -> restart for a second round.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"

using namespace partib;

int main() {
  // A simulated two-node EDR InfiniBand cluster: the discrete-event
  // backend (virtual clock plus fabric model) and a two-rank world on it.
  const mpi::WorldOptions wopts;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);

  constexpr std::size_t kPartitions = 16;
  constexpr std::size_t kBytes = 64 * KiB;
  std::vector<std::byte> send_buffer(kBytes);
  std::vector<std::byte> recv_buffer(kBytes);

  // Channel setup (cf. MPI_Psend_init / MPI_Precv_init).  The default
  // options use the PLogGP aggregator with Niagara-like parameters.
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  const part::Options opts = part::Options::defaults();
  if (!ok(part::psend_init(world.rank(0), send_buffer, kPartitions,
                           /*dst=*/1, /*tag=*/0, /*comm=*/0, opts, &send)) ||
      !ok(part::precv_init(world.rank(1), recv_buffer, kPartitions,
                           /*src=*/0, /*tag=*/0, /*comm=*/0, opts, &recv))) {
    std::fprintf(stderr, "channel setup failed\n");
    return 1;
  }

  std::printf("plan: %zu user partitions -> %zu transport partitions over "
              "%d QP(s)\n",
              send->user_partitions(), send->transport_partitions(),
              send->qp_count());

  for (int round = 1; round <= 2; ++round) {
    // Fill the send buffer with this round's payload.
    for (std::size_t i = 0; i < kBytes; ++i) {
      send_buffer[i] = static_cast<std::byte>((i + static_cast<std::size_t>(round)) & 0xFF);
    }
    (void)send->start();  // cf. MPI_Start on both sides
    (void)recv->start();

    // Each simulated worker thread computes for a different time, then
    // marks its partition ready (cf. MPI_Pready from a parallel region).
    for (std::size_t i = 0; i < kPartitions; ++i) {
      const Duration compute = usec(10) + usec(2) * static_cast<Duration>(i);
      world.rank(0).cpu().submit(compute, [&send, i] {
        (void)send->pready(i);
      });
    }

    // Drive the cluster until quiescent (cf. MPI_Wait on both sides).
    des.run_until_idle();

    std::printf("round %d: complete at t=%s, %llu WR(s) so far, data %s\n",
                round, format_duration(des.now()).c_str(),
                static_cast<unsigned long long>(send->wrs_posted_total()),
                send_buffer == recv_buffer ? "intact" : "CORRUPT");
    if (send_buffer != recv_buffer) return 1;
  }
  return 0;
}

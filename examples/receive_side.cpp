// Receive-side partitioned processing (Dosanjh & Grant, the paper's
// reference [9]): consumer threads poll MPI_Parrived and process each
// partition the moment it lands, overlapping receive-side compute with
// the remaining transfers instead of waiting for the whole message.
//
// The example measures the completion time of the receive-side pipeline
// (last partition processed) with and without the overlap.
#include <cstdio>
#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "sim/noise.hpp"
#include "sim/resources.hpp"
#include "support_options.hpp"

using namespace partib;

namespace {

constexpr std::size_t kPartitions = 16;
constexpr std::size_t kBytes = 16 * MiB;
constexpr Duration kWorkPerPartition = usec(120);

Time run(bool overlap) {
  const mpi::WorldOptions wopts;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);
  // One dedicated consumer thread on the receiver processes partitions
  // serially (a reduction/unpack stage).
  sim::FifoResource consumer(des.engine(), 1);
  std::vector<std::byte> sbuf(kBytes), rbuf(kBytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  const auto opts = examples::persistent_options();
  (void)part::psend_init(world.rank(0), sbuf, kPartitions, 1, 0, 0, opts,
                         &send);
  (void)part::precv_init(world.rank(1), rbuf, kPartitions, 0, 0, 0, opts,
                         &recv);
  des.run_until_idle();

  (void)send->start();
  (void)recv->start();

  // Sender threads: modest compute with a staggered pattern, so
  // partitions trickle in.
  const auto pattern = sim::staggered(kPartitions, usec(50), usec(40));
  for (std::size_t i = 0; i < kPartitions; ++i) {
    world.rank(0).cpu().submit(pattern[i], [&send, i] {
      (void)send->pready(i);
    });
  }

  Time last_processed = 0;
  std::size_t processed = 0;
  if (overlap) {
    // The consumer picks up each partition the moment Parrived flips —
    // modelled here through the arrival hook feeding the serial worker.
    recv->set_arrival_hook([&](std::size_t, Time) {
      consumer.request(kWorkPerPartition, [&](Time, Time end) {
        ++processed;
        last_processed = end;
      });
    });
    des.run_until_idle();
  } else {
    // Classic style: wait for the whole message, then process everything.
    des.run_until_idle();
    for (std::size_t i = 0; i < kPartitions; ++i) {
      consumer.request(kWorkPerPartition, [&](Time, Time end) {
        ++processed;
        last_processed = end;
      });
    }
    des.run_until_idle();
  }
  if (processed != kPartitions) std::abort();
  return last_processed;
}

}  // namespace

int main() {
  std::printf("receive-side processing of %s in %zu partitions, %s of "
              "work per partition\n\n",
              format_bytes(kBytes).c_str(), kPartitions,
              format_duration(kWorkPerPartition).c_str());
  const Time bulk = run(/*overlap=*/false);
  const Time overlapped = run(/*overlap=*/true);
  std::printf("wait-then-process: last partition processed at %s\n",
              format_duration(bulk).c_str());
  std::printf("Parrived overlap:  last partition processed at %s "
              "(%.2fx faster)\n",
              format_duration(overlapped).c_str(),
              static_cast<double>(bulk) / static_cast<double>(overlapped));
  return 0;
}

// Umbrella header and free-function API for partitioned communication.
//
// Quickstart:
//
//   const mpi::WorldOptions wopts{.ranks = 2};
//   backend::DesBackend des(mpi::backend_config(wopts));
//   mpi::World world(des, wopts);
//   std::vector<std::byte> sbuf(64 * KiB), rbuf(64 * KiB);
//
//   std::unique_ptr<part::PsendRequest> send;
//   std::unique_ptr<part::PrecvRequest> recv;
//   part::psend_init(world.rank(0), sbuf, 16, /*dst=*/1, /*tag=*/7,
//                    /*comm=*/0, part::Options::defaults(), &send);
//   part::precv_init(world.rank(1), rbuf, 16, /*src=*/0, /*tag=*/7,
//                    /*comm=*/0, part::Options::defaults(), &recv);
//
//   send->start();  recv->start();
//   for (std::size_t i = 0; i < 16; ++i) send->pready(i);
//   des.run_until_idle();   // drive the simulated cluster to quiescence
//   assert(send->test() && recv->test());
#pragma once

#include "part/imm.hpp"
#include "part/options.hpp"
#include "part/precv.hpp"
#include "part/psend.hpp"

namespace partib::part {

/// MPI_Psend_init: set up the send side of a partitioned channel.
inline Status psend_init(mpi::Rank& rank, std::span<std::byte> buffer,
                         std::size_t partitions, int dst, int tag,
                         int comm_id, const Options& opts,
                         std::unique_ptr<PsendRequest>* out) {
  return PsendRequest::init(rank, buffer, partitions, dst, tag, comm_id,
                            opts, out);
}

/// MPI_Precv_init: set up the receive side of a partitioned channel.
inline Status precv_init(mpi::Rank& rank, std::span<std::byte> buffer,
                         std::size_t partitions, int src, int tag,
                         int comm_id, const Options& opts,
                         std::unique_ptr<PrecvRequest>* out) {
  return PrecvRequest::init(rank, buffer, partitions, src, tag, comm_id,
                            opts, out);
}

}  // namespace partib::part

// Early-bird transmission up close: one imbalanced producer.
//
// 31 worker threads finish their 100 ms of compute together; one laggard
// takes 4 ms longer (the paper's canonical 4% noise case).  The example
// traces, for each design, when each partition leaves and when the
// receiver could first consume it via Parrived — making the paper's
// perceived-bandwidth argument concrete.
#include <cstdio>
#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "sim/noise.hpp"
#include "support_options.hpp"

using namespace partib;

namespace {

constexpr std::size_t kPartitions = 32;
constexpr std::size_t kBytes = 8 * MiB;
constexpr std::size_t kLaggard = 17;

void run_design(const char* name, const part::Options& opts) {
  const mpi::WorldOptions wopts;
  backend::DesBackend des(mpi::backend_config(wopts));
  mpi::World world(des, wopts);
  std::vector<std::byte> sbuf(kBytes), rbuf(kBytes);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  if (!ok(part::psend_init(world.rank(0), sbuf, kPartitions, 1, 0, 0, opts,
                           &send)) ||
      !ok(part::precv_init(world.rank(1), rbuf, kPartitions, 0, 0, 0, opts,
                           &recv))) {
    std::fprintf(stderr, "setup failed\n");
    return;
  }
  des.run_until_idle();

  (void)send->start();
  (void)recv->start();
  std::vector<Time> arrivals(kPartitions, -1);
  recv->set_arrival_hook(
      [&arrivals](std::size_t p, Time t) { arrivals[p] = t; });

  const auto pattern =
      sim::many_before_one(kPartitions, msec(100), 0.04, kLaggard);
  Time last_pready = 0;
  for (std::size_t i = 0; i < kPartitions; ++i) {
    world.rank(0).cpu().submit(pattern[i], [&, i] {
      last_pready = std::max(last_pready, des.now());
      (void)send->pready(i);
    });
  }
  des.run_until_idle();

  std::size_t early = 0;
  Time laggard_arrival = arrivals[kLaggard];
  for (std::size_t i = 0; i < kPartitions; ++i) {
    if (i != kLaggard && arrivals[i] < last_pready) ++early;
  }
  const double latency_us = to_usec(laggard_arrival - last_pready);
  const double perceived =
      static_cast<double>(kBytes) /
      static_cast<double>(laggard_arrival - last_pready);
  std::printf(
      "%-28s %2zu/31 partitions arrived before the laggard computed; "
      "last-partition latency %7.1f us; perceived bandwidth %6.1f GB/s; "
      "%llu WRs\n",
      name, early, latency_us, perceived,
      static_cast<unsigned long long>(send->wrs_posted_total()));
}

}  // namespace

int main() {
  std::printf("8 MiB over 32 partitions; 100 ms compute; laggard thread "
              "%zu is 4 ms late; wire limit 12.1 GB/s\n\n",
              kLaggard);
  run_design("persistent (no aggregation)", examples::persistent_options());
  run_design("PLogGP aggregator", examples::ploggp_options());
  run_design("Timer-PLogGP (d=35us)", examples::timer_options(usec(35)));
  run_design("Timer-PLogGP (d=3000us)", examples::timer_options(usec(3000)));
  return 0;
}

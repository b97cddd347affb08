// Fig 3: PLogGP-modelled time to completion of a partitioned transfer for
// different transport-partition counts, with a 4 ms laggard delay
// (100 ms compute, 4% noise — the convention of prior work).
//
// Paper shape: for small/medium messages larger partition counts take
// longer (per-message overheads); for large messages the model favours
// larger counts (more of the buffer moves during the delay).
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "common/units.hpp"
#include "model/ploggp.hpp"
#include "support/bench_main.hpp"

using namespace partib;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  const auto params = model::LogGPParams::niagara_mpi_measured();
  const std::vector<std::size_t> counts = {1, 2, 4, 8, 16, 32};

  std::vector<std::string> headers = {"msg_size"};
  for (std::size_t p : counts) {
    std::string h = "P";
    h += std::to_string(p);
    h += "_ms";
    headers.push_back(std::move(h));
  }
  bench::Table table(
      "Fig 3: PLogGP modelled completion time (4 ms laggard delay)",
      headers);

  for (std::size_t bytes : pow2_sizes(1 * KiB, 256 * MiB)) {
    std::vector<std::string> row = {format_bytes(bytes)};
    for (std::size_t p : counts) {
      const Duration t = model::completion_time(
          params, model::PLogGPQuery{bytes, p, msec(4)});
      row.push_back(bench::fmt(to_msec(t), 3));
    }
    table.add_row(std::move(row));
  }
  cli.emit(table);
  return 0;
}

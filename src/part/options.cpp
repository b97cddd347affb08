#include "part/options.hpp"

#include "agg/strategies.hpp"

namespace partib::part {

Options Options::defaults() {
  Options o;
  o.aggregator = std::make_shared<agg::PLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured());
  return o;
}

}  // namespace partib::part

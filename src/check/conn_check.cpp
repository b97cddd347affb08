#include "check/conn_check.hpp"

#include <cstdio>

#include "check/check.hpp"

namespace partib::check {

void on_conn_demux_miss(int rank, std::uint32_t qp_num) {
  char detail[80];
  std::snprintf(detail, sizeof(detail),
                "completion for qp#%u with no connection handler dropped",
                qp_num);
  report("conn.demux", "conn_manager", rank, detail);
}

}  // namespace partib::check

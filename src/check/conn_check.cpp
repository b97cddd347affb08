#include "check/conn_check.hpp"

#include <cstdio>

#include "check/check.hpp"

namespace partib::check {

void on_conn_demux_miss(const void* /*router*/, std::uint32_t qp_num) {
  char detail[80];
  std::snprintf(detail, sizeof(detail),
                "completion for unbound qp#%u dropped", qp_num);
  report("conn.demux", "wc_router", -1, detail);
}

}  // namespace partib::check

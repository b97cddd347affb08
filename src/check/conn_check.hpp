// Checker hooks for the connection-scale layer (mpi/conn.hpp).
//
// Unlike the verbs/part shadows this hook carries no independent state:
// the condition it polices (a shared-CQ completion whose QP carries no
// connection with a handler) is detected by the manager's drain itself;
// the hook turns it into a registered-rule diagnostic and compiles away
// with PARTIB_CHECK=OFF like every other hook (check/hooks.hpp).
#pragma once

#include <cstdint>

namespace partib::check {

/// A completion drained from `rank`'s shared CQ carried a qp_num with no
/// connection handler (rule conn.demux); the completion is dropped.
void on_conn_demux_miss(int rank, std::uint32_t qp_num);

}  // namespace partib::check

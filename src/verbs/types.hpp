// Wire-level verb types, mirroring the libibverbs vocabulary
// (ibv_sge, ibv_send_wr, ibv_wc, ...) in C++ form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>

#include "common/assert.hpp"
#include "common/time.hpp"

namespace partib::verbs {

using Lkey = std::uint32_t;
using Rkey = std::uint32_t;

/// MR access flags (a subset of IBV_ACCESS_*).
enum Access : unsigned {
  kLocalRead = 0,          // always granted
  kLocalWrite = 1u << 0,   // required for receive buffers
  kRemoteWrite = 1u << 1,  // required for RDMA-write targets
  kRemoteRead = 1u << 2,
};

/// Scatter/gather element: a slice of a registered memory region.
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  Lkey lkey = 0;
};

/// Fixed-capacity inline scatter/gather list.
///
/// Real ibv_send_wr carries `sg_list` as a pointer + count into
/// caller-owned storage, so posting never allocates; the seed's
/// `std::vector<Sge>` put one heap allocation on every WR fill and made
/// SendWr expensive to stage, queue and retry.  An inline array restores
/// the wire-idiomatic cost model and keeps SendWr/RecvWr trivially
/// copyable, which in turn lets the WQE slab and backlog rings relocate
/// them with memcpy.  Capacity mirrors a typical max_send_sge of 4; every
/// WR in the simulator uses 1–2 entries.
class SgList {
 public:
  static constexpr std::size_t kMaxSges = 4;

  SgList() = default;
  SgList(std::initializer_list<Sge> il) {
    PARTIB_ASSERT(il.size() <= kMaxSges);
    for (const Sge& s : il) sges_[size_++] = s;
  }

  void push_back(const Sge& s) {
    PARTIB_ASSERT(size_ < kMaxSges);
    sges_[size_++] = s;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }

  Sge& operator[](std::size_t i) {
    PARTIB_ASSERT(i < size_);
    return sges_[i];
  }
  const Sge& operator[](std::size_t i) const {
    PARTIB_ASSERT(i < size_);
    return sges_[i];
  }

  Sge* begin() { return sges_; }
  Sge* end() { return sges_ + size_; }
  const Sge* begin() const { return sges_; }
  const Sge* end() const { return sges_ + size_; }

 private:
  std::size_t size_ = 0;
  Sge sges_[kMaxSges] = {};
};

enum class Opcode {
  kRdmaWrite,         // IBV_WR_RDMA_WRITE
  kRdmaWriteWithImm,  // IBV_WR_RDMA_WRITE_WITH_IMM
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kRdmaWrite;
  SgList sg_list;
  /// Network-byte-order 32-bit immediate (only *_WITH_IMM delivers it).
  std::uint32_t imm = 0;
  /// RDMA target.
  std::uint64_t remote_addr = 0;
  Rkey rkey = 0;
  /// Simulator extension: scales the per-QP wire-rate cap for this WR.
  /// Software stacks whose eager path cannot keep the DMA pipeline full
  /// (e.g. UCX eager/zcopy) post with a factor < 1.
  double rate_cap_factor = 1.0;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  /// Validated against the MRs at post time, as ibverbs does, but never
  /// written: RDMA-write-with-immediate consumes the WR and lands its
  /// payload through the rkey'd region instead.
  SgList sg_list;
};

enum class WcStatus {
  kSuccess,
  kLocalProtectionError,  // sge outside a registered MR
  kRemoteAccessError,     // bad rkey / range / permissions at the target
  kRemoteNotReady,        // no receive WR posted at the target
  kRetryExcErr,           // transport retry count exceeded (IBV_WC_RETRY_EXC_ERR)
  kRnrRetryExcErr,        // RNR NAK retry count exceeded (IBV_WC_RNR_RETRY_EXC_ERR)
  kWrFlushErr,            // WR flushed: QP entered the error state (IBV_WC_WR_FLUSH_ERR)
};

enum class WcOpcode {
  kRdmaWrite,       // send-side completion of an RDMA write
  kRecvRdmaWithImm, // receive completion of RDMA_WRITE_WITH_IMM
};

struct Wc {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  WcOpcode opcode = WcOpcode::kRdmaWrite;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  std::uint32_t qp_num = 0;
  /// Simulator extension: virtual time at which the CQE was raised.
  Time completion_time = 0;
};

enum class QpState { kReset, kInit, kRtr, kRts, kError };

struct QpCaps {
  int max_send_wr = 16;  ///< ConnectX-5 concurrent-RDMA-WR limit
  int max_recv_wr = 1024;
};

/// Shared-receive-queue attributes (cf. ibv_srq_init_attr.attr).
struct SrqAttrs {
  int max_wr = 1024;  ///< capacity bound; post_recv past it is rejected
  /// Low-watermark arm value (cf. ibv_modify_srq IBV_SRQ_LIMIT): when the
  /// posted count drops below it the one-shot limit event fires and the
  /// limit disarms, exactly like IBV_EVENT_SRQ_LIMIT_REACHED.  0 = never.
  int srq_limit = 0;
};

constexpr const char* to_string(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess: return "SUCCESS";
    case WcStatus::kLocalProtectionError: return "LOCAL_PROTECTION_ERROR";
    case WcStatus::kRemoteAccessError: return "REMOTE_ACCESS_ERROR";
    case WcStatus::kRemoteNotReady: return "REMOTE_NOT_READY";
    case WcStatus::kRetryExcErr: return "RETRY_EXC_ERR";
    case WcStatus::kRnrRetryExcErr: return "RNR_RETRY_EXC_ERR";
    case WcStatus::kWrFlushErr: return "WR_FLUSH_ERR";
  }
  return "UNKNOWN";
}

constexpr const char* to_string(QpState s) {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kInit: return "INIT";
    case QpState::kRtr: return "RTR";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "UNKNOWN";
}

// Stream insertion for diagnostics and test-failure messages: gtest would
// otherwise print the raw enum ordinal, which no one can grep a verbs man
// page for.  Defined out of line (types.cpp) to keep <ostream> out of this
// header.
std::ostream& operator<<(std::ostream& os, WcStatus s);
std::ostream& operator<<(std::ostream& os, QpState s);

}  // namespace partib::verbs

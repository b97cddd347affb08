#include "check/verbs_check.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check/check.hpp"

namespace partib::check {

namespace {

using verbs::QpState;

struct QpShadow {
  std::uint32_t qp_num = 0;
  verbs::QpCaps caps;
  QpState state = QpState::kReset;
  int outstanding_sends = 0;
  int posted_recvs = 0;
};

struct CqShadow {
  int depth = 0;
  int pending = 0;
};

struct SrqShadow {
  int max_wr = 0;
  int posted = 0;
};

struct MrShadow {
  const void* pd = nullptr;
  std::uint64_t addr = 0;
  std::size_t len = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  unsigned access = 0;

  bool contains(std::uint64_t a, std::size_t n) const {
    return a >= addr && a + n <= addr + len;
  }
};

struct Shadow {
  std::map<const void*, QpShadow> qps;
  std::map<const void*, CqShadow> cqs;
  std::map<const void*, SrqShadow> srqs;
  // All registrations, newest last; lookup scans because lkeys are only
  // unique per device, and the checker spans every device in the process.
  std::vector<MrShadow> mrs;
};

Shadow& shadow() {
  // thread_local: one independent simulation (and so one coherent shadow
  // world) per runner worker thread — see check.cpp.
  static thread_local Shadow s;
  return s;
}

std::string qp_name(const void* qp) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return "qp#?";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "qp#%u", it->second.qp_num);
  return buf;
}

const char* state_name(QpState s) {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kInit: return "INIT";
    case QpState::kRtr: return "RTR";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "?";
}

/// The RC connection bring-up chain plus the two any-state absorbing
/// transitions (-> ERROR, -> RESET) — exactly the transitions
/// ibv_modify_qp would accept here.
bool legal_transition(QpState from, QpState to) {
  if (to == QpState::kError || to == QpState::kReset) return true;
  switch (to) {
    case QpState::kInit: return from == QpState::kReset;
    case QpState::kRtr: return from == QpState::kInit;
    case QpState::kRts: return from == QpState::kRtr;
    default: return false;
  }
}

const MrShadow* find_local(const void* pd, std::uint32_t lkey,
                           std::uint64_t addr, std::size_t len) {
  for (const MrShadow& mr : shadow().mrs) {
    if (mr.pd == pd && mr.lkey == lkey && mr.contains(addr, len)) return &mr;
  }
  return nullptr;
}

const MrShadow* find_remote(std::uint32_t rkey) {
  for (const MrShadow& mr : shadow().mrs) {
    if (mr.rkey == rkey) return &mr;
  }
  return nullptr;
}

}  // namespace

void on_qp_created(const void* qp, std::uint32_t qp_num,
                   const verbs::QpCaps& caps) {
  QpShadow s;
  s.qp_num = qp_num;
  s.caps = caps;
  shadow().qps[qp] = s;  // overwrite: address reuse starts a fresh shadow
}

void on_cq_created(const void* cq, int depth) {
  shadow().cqs[cq] = CqShadow{depth, 0};
}

void on_mr_registered(const void* pd, std::uint64_t addr, std::size_t len,
                      std::uint32_t lkey, std::uint32_t rkey,
                      unsigned access) {
  // Keys are device-global, so a colliding rkey can only be a stale entry
  // from an earlier simulation in this process: replace it (last wins).
  // This keeps find_remote() exact and bounds shadow growth across
  // world-per-trial fuzz runs.
  for (MrShadow& mr : shadow().mrs) {
    if (mr.rkey == rkey) {
      mr = MrShadow{pd, addr, len, lkey, rkey, access};
      return;
    }
  }
  shadow().mrs.push_back(MrShadow{pd, addr, len, lkey, rkey, access});
}

void on_qp_transition(const void* qp, QpState target, bool applied) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;  // untracked (created before reset)
  QpShadow& s = it->second;
  if (!legal_transition(s.state, target)) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "illegal transition %s -> %s%s", state_name(s.state),
                  state_name(target),
                  applied ? " (and the library applied it)" : "");
    report("qp.transition", qp_name(qp).c_str(), -1, detail);
  }
  if (applied) {
    s.state = target;
    // A reset tears down the receive queue with the context; in-flight
    // sends are forbidden separately (on_qp_reset_outstanding).
    if (target == QpState::kReset) s.posted_recvs = 0;
  }
}

void on_qp_reset_outstanding(const void* qp, int outstanding) {
  char detail[80];
  std::snprintf(detail, sizeof(detail),
                "to_reset with %d send WRs still in flight", outstanding);
  report("qp.reset_outstanding", qp_name(qp).c_str(), -1, detail);
}

void on_post_send(const void* qp, const void* pd, const verbs::SendWr& wr) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  const QpShadow& s = it->second;
  const std::string name = qp_name(qp);

  if (s.state != QpState::kRts) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "post_send while QP is in %s",
                  state_name(s.state));
    report("qp.post_state", name.c_str(), -1, detail);
  }

  std::size_t total = 0;
  for (const verbs::Sge& sge : wr.sg_list) {
    total += sge.length;
    if (find_local(pd, sge.lkey, sge.addr, sge.length) == nullptr) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "SGE [0x%llx, +%u) not covered by an MR with lkey %u",
                    static_cast<unsigned long long>(sge.addr), sge.length,
                    sge.lkey);
      report("wr.lkey", name.c_str(), -1, detail);
    }
  }

  const MrShadow* mr = find_remote(wr.rkey);
  if (mr == nullptr) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "rkey %u is not registered",
                  wr.rkey);
    report("wr.rkey", name.c_str(), -1, detail);
  } else if (!mr->contains(wr.remote_addr, total)) {
    char detail[112];
    std::snprintf(detail, sizeof(detail),
                  "RDMA target [0x%llx, +%zu) outside rkey %u region "
                  "[0x%llx, +%zu)",
                  static_cast<unsigned long long>(wr.remote_addr), total,
                  wr.rkey, static_cast<unsigned long long>(mr->addr),
                  mr->len);
    report("wr.rkey", name.c_str(), -1, detail);
  } else if ((mr->access & verbs::kRemoteWrite) == 0) {
    char detail[64];
    std::snprintf(detail, sizeof(detail),
                  "rkey %u region lacks REMOTE_WRITE access", wr.rkey);
    report("wr.access", name.c_str(), -1, detail);
  }
}

void on_send_accepted(const void* qp) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  QpShadow& s = it->second;
  ++s.outstanding_sends;
  if (s.outstanding_sends > s.caps.max_send_wr) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%d send WRs outstanding, max_send_wr=%d",
                  s.outstanding_sends, s.caps.max_send_wr);
    report("qp.send_capacity", qp_name(qp).c_str(), -1, detail);
  }
}

void on_send_completed(const void* qp) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  it->second.outstanding_sends =
      std::max(0, it->second.outstanding_sends - 1);
}

void on_post_recv(const void* qp, const void* pd, const verbs::RecvWr& wr) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  const QpShadow& s = it->second;
  const std::string name = qp_name(qp);

  if (s.state == QpState::kReset || s.state == QpState::kError) {
    char detail[64];
    std::snprintf(detail, sizeof(detail), "post_recv while QP is in %s",
                  state_name(s.state));
    report("qp.recv_state", name.c_str(), -1, detail);
  }
  for (const verbs::Sge& sge : wr.sg_list) {
    const MrShadow* mr = find_local(pd, sge.lkey, sge.addr, sge.length);
    if (mr == nullptr) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "SGE [0x%llx, +%u) not covered by an MR with lkey %u",
                    static_cast<unsigned long long>(sge.addr), sge.length,
                    sge.lkey);
      report("wr.lkey", name.c_str(), -1, detail);
    } else if ((mr->access & verbs::kLocalWrite) == 0) {
      report("wr.access", name.c_str(), -1,
             "receive buffer MR lacks LOCAL_WRITE access");
    }
  }
}

void on_recv_accepted(const void* qp) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  QpShadow& s = it->second;
  ++s.posted_recvs;
  if (s.posted_recvs > s.caps.max_recv_wr) {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%d recv WRs posted, max_recv_wr=%d", s.posted_recvs,
                  s.caps.max_recv_wr);
    report("qp.recv_capacity", qp_name(qp).c_str(), -1, detail);
  }
}

void on_recv_consumed(const void* qp) {
  auto it = shadow().qps.find(qp);
  if (it == shadow().qps.end()) return;
  it->second.posted_recvs = std::max(0, it->second.posted_recvs - 1);
}

void on_cq_push(const void* cq) {
  auto it = shadow().cqs.find(cq);
  if (it == shadow().cqs.end()) return;
  CqShadow& s = it->second;
  ++s.pending;
  if (s.pending > s.depth) {
    char detail[80];
    std::snprintf(detail, sizeof(detail),
                  "%d completions pending, CQ depth %d", s.pending, s.depth);
    report("cq.overflow", "cq", -1, detail);
  }
}

void on_cq_poll(const void* cq, int n) {
  auto it = shadow().cqs.find(cq);
  if (it == shadow().cqs.end()) return;
  it->second.pending = std::max(0, it->second.pending - n);
}

void on_srq_created(const void* srq, const verbs::SrqAttrs& attrs) {
  shadow().srqs[srq] = SrqShadow{attrs.max_wr, 0};
}

void on_srq_post(const void* srq, const void* pd, const verbs::RecvWr& wr) {
  auto it = shadow().srqs.find(srq);
  if (it == shadow().srqs.end()) return;
  const SrqShadow& s = it->second;
  if (s.posted >= s.max_wr) {
    char detail[80];
    std::snprintf(detail, sizeof(detail),
                  "%d recv WRs already posted, max_wr=%d", s.posted,
                  s.max_wr);
    report("srq.capacity", "srq", -1, detail);
  }
  for (const verbs::Sge& sge : wr.sg_list) {
    const MrShadow* mr = find_local(pd, sge.lkey, sge.addr, sge.length);
    if (mr == nullptr) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "SGE [0x%llx, +%u) not covered by an MR with lkey %u",
                    static_cast<unsigned long long>(sge.addr), sge.length,
                    sge.lkey);
      report("wr.lkey", "srq", -1, detail);
    } else if ((mr->access & verbs::kLocalWrite) == 0) {
      report("wr.access", "srq", -1,
             "receive buffer MR lacks LOCAL_WRITE access");
    }
  }
}

void on_srq_accepted(const void* srq) {
  auto it = shadow().srqs.find(srq);
  if (it == shadow().srqs.end()) return;
  ++it->second.posted;
}

void on_srq_consumed(const void* srq) {
  auto it = shadow().srqs.find(srq);
  if (it == shadow().srqs.end()) return;
  it->second.posted = std::max(0, it->second.posted - 1);
}

void on_srq_armed(const void* srq, int limit) {
  auto it = shadow().srqs.find(srq);
  if (it == shadow().srqs.end()) return;
  if (limit < 0 || limit >= it->second.max_wr) {
    char detail[80];
    std::snprintf(detail, sizeof(detail),
                  "limit %d outside [0, max_wr=%d)", limit,
                  it->second.max_wr);
    report("srq.limit", "srq", -1, detail);
  }
}

void on_srq_resized(const void* srq, int max_wr) {
  auto it = shadow().srqs.find(srq);
  if (it == shadow().srqs.end()) return;
  it->second.max_wr = max_wr;
}

namespace detail {
void reset_verbs_shadow() {
  shadow().qps.clear();
  shadow().cqs.clear();
  shadow().srqs.clear();
  shadow().mrs.clear();
}
}  // namespace detail

}  // namespace partib::check

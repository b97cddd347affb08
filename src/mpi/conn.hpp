// Connection-scale shared resources: one CQ + one SRQ per rank, and an
// Ibdxnet-style on-demand connection manager over them.
//
// The per-channel design (part/psend.hpp, part/precv.hpp) gives every
// channel private QPs and a private CQ — fine at paper scale, linear in
// peers at incast scale: a 1k-peer fan-in provisions a thousand
// 65536-entry CQs on the hot rank.  Real high-connection-count InfiniBand
// deployments (Ibdxnet, PAPERS.md; rdmalib's
// `Cluster::establish(num_rc, share_cq_with)`, SNIPPETS.md) share receive
// resources instead:
//
//   * every QP the manager creates drains into the rank's single shared
//     CQ and draws receive WRs from the rank's single SRQ;
//   * completions are demultiplexed by wc.qp_num through a hash table
//     sized by the rank's own QPs (WcRouter) — one hash and probe per
//     CQE, preserving the allocation-free poll path;
//   * QP chains are created lazily, on the first send toward a peer, one
//     fresh chain per connect().  Like the paper's per-channel QPs they
//     are brought to RTS once and never torn down or reused.
//
// Channels opt in with part::Options::shared_resources; the dedicated
// per-channel path remains the default (and keeps the figure fingerprints
// byte-identical).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "verbs/verbs.hpp"

namespace partib::mpi {

class Rank;

/// wc.qp_num -> handler table for shared-CQ demultiplexing.
/// qp_nums are device-wide, so a rank's own QPs are a sparse subset of
/// them; the table is open-addressed (linear probing, power-of-two size,
/// load <= 1/2) on a multiplicative hash of qp_num with the handler
/// stored inline, so it is sized by the QPs this rank binds and a route
/// is one hash, usually one cell compare, and the handler call.
/// The sim never destroys a QP, so unbind nulls the handler in place and
/// a qp_num's cell is reused when it is bound again — no tombstones.
/// Standalone so BM_SharedCqDemux measures exactly the dispatch the
/// manager runs.
class WcRouter {
 public:
  using Handler = std::function<void(const verbs::Wc&)>;

  WcRouter();

  void bind(std::uint32_t qp_num, Handler h);
  void unbind(std::uint32_t qp_num);
  bool bound(std::uint32_t qp_num) const;

  /// Drain `cq` in 16-entry bursts, routing each completion to its QP's
  /// handler.  A CQE for an unbound qp_num is dropped (rule conn.demux).
  /// Returns the number of completions routed.
  int drain(verbs::Cq& cq);

 private:
  /// `qp_num == 0` marks an empty cell (real qp_nums start at
  /// verbs::Device::kFirstQpNum).
  struct Route {
    std::uint32_t qp_num = 0;
    Handler handler;
  };

  /// Index of the cell keyed `qp_num`, or of the empty cell ending its
  /// probe run.  Multiplicative hashing: a rank's qp_nums come in strides
  /// set by how the other ranks' QP creations interleave with its own,
  /// which would pile up on the low bits alone.
  static std::size_t probe(const Route* routes, std::size_t mask,
                           unsigned shift, std::uint32_t qp_num) {
    auto i = static_cast<std::size_t>((qp_num * 0x9E3779B97F4A7C15ULL) >>
                                      shift);
    while (routes[i].qp_num != qp_num && routes[i].qp_num != 0) {
      i = (i + 1) & mask;
    }
    return i;
  }
  std::size_t cell(std::uint32_t qp_num) const {
    return probe(routes_.data(), routes_.size() - 1, shift_, qp_num);
  }
  void grow();

  std::vector<Route> routes_;
  unsigned shift_ = 0;  ///< 64 - log2(routes_.size())
  std::size_t keys_ = 0;
  /// Guards against bind() rehashing routes_ under drain's feet (the hot
  /// loop calls through a reference into the table).
  bool draining_ = false;
};

class ConnectionManager {
 public:
  using ConnId = int;
  static constexpr ConnId kNilConn = -1;

  /// One connection: a QP chain toward `peer`, in RTS once established.
  struct Connection {
    ConnId id = kNilConn;
    int peer = -1;
    std::vector<verbs::Qp*> qps;
    bool established = false;
  };

  using Ready = std::function<void(Connection&)>;

  explicit ConnectionManager(Rank& rank);
  ~ConnectionManager();
  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  // -- shared resources ------------------------------------------------------
  verbs::Cq& cq() { return cq_; }
  verbs::Srq& srq() { return srq_; }
  WcRouter& router() { return router_; }

  // -- demultiplexing --------------------------------------------------------
  void bind(std::uint32_t qp_num, WcRouter::Handler h);
  void unbind(std::uint32_t qp_num);

  // -- SRQ staging -----------------------------------------------------------
  /// Channels reserve worst-case receive-WR headroom for their lifetime;
  /// the manager keeps the SRQ topped up to the reservation sum (growing
  /// its capacity when demand outruns the provisioning floor) and refills
  /// after consumption — on the SRQ limit event and after each dispatch.
  void reserve_recv_wrs(std::size_t n);
  void release_recv_wrs(std::size_t n);

  // -- active (sender) side --------------------------------------------------
  /// Lazily establish a `qp_count`-QP chain toward `peer`.  `token` names
  /// the passive side's expect() registration (the channels use the
  /// receiver-request pointer from the ack).  `on_ready` fires — after the
  /// control-plane round trip — with the chain in RTS.  Every call builds
  /// a fresh chain, even toward a peer connected before.
  ConnId connect(int peer, int qp_count, std::uint64_t token, Ready on_ready);

  /// The channel holding `id` is gone: unbind the chain's router handlers.
  /// The chain itself stays in RTS, unused.
  void release(ConnId id);

  Connection& connection(ConnId id);

  // -- passive (receiver) side -----------------------------------------------
  /// Register `on_accept` for an incoming connect carrying `token`; fires
  /// with this side's chain already in RTS.
  void expect(std::uint64_t token, Ready on_accept);
  void forget(std::uint64_t token);

  // -- control-plane entry points (called via World::send_control) -----------
  void on_connect_request(int from, std::uint64_t token,
                          const std::vector<std::uint32_t>& qp_nums,
                          ConnId origin);
  void on_connect_reply(ConnId local,
                        const std::vector<std::uint32_t>& qp_nums);

  // -- introspection ---------------------------------------------------------
  std::size_t slot_count() const { return conns_.size(); }
  std::uint64_t total_establishments() const { return total_establishments_; }
  /// Deleted with connection recycling; kept at 0 for perfbench's
  /// re-drives until ROADMAP item 8 removes their copy of the trial forms.
  std::uint64_t total_recycles() const { return 0; }
  std::size_t reserved_recv_wrs() const { return reserve_target_; }

 private:
  /// A new slot toward `peer` with a fresh `qp_count`-QP chain in INIT.
  Connection& add_connection(int peer, int qp_count);
  /// Move `conn`'s chain INIT -> RTR -> RTS against the peer's `qp_nums`.
  void establish(Connection& conn, const std::vector<std::uint32_t>& qp_nums);
  void refill_srq();
  void schedule_refill();
  void schedule_dispatch();
  void dispatch();

  Rank& rank_;
  verbs::Cq& cq_;
  verbs::Srq& srq_;
  WcRouter router_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::map<std::uint64_t, Ready> expected_;
  std::map<ConnId, Ready> pending_ready_;
  std::size_t reserve_target_ = 0;
  std::uint64_t next_recv_wr_id_ = 0;
  std::uint64_t total_establishments_ = 0;
  bool dispatch_scheduled_ = false;
  bool refill_scheduled_ = false;
};

}  // namespace partib::mpi

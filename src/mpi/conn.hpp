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
//   * every such QP carries its Connection as the verbs per-QP context
//     (cf. ibv_qp_init_attr.qp_context), so the drain resolves a
//     completion's owner from wc.qp_num with one array load
//     (verbs::Device::qp_context) and calls that connection's handler —
//     no table of its own, and an allocation-free poll path;
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

class ConnectionManager {
 public:
  using ConnId = int;
  static constexpr ConnId kNilConn = -1;

  struct Connection;
  using Ready = std::function<void(Connection&)>;

  /// One connection: a QP chain toward `peer`, in RTS once established.
  /// Each of its QPs carries the Connection as its verbs context.
  struct Connection {
    ConnId id = kNilConn;
    int peer = -1;
    std::vector<verbs::Qp*> qps;
    bool established = false;
    /// Active side: fires once, when the connect reply brings the chain
    /// to RTS.
    Ready on_ready;
    /// Every completion of the chain's QPs, in CQ order.  The channel
    /// holding the connection sets it; while it is empty the chain's
    /// completions are dropped (rule conn.demux).
    std::function<void(const verbs::Wc&)> on_wc;
  };

  explicit ConnectionManager(Rank& rank);
  ~ConnectionManager();
  ConnectionManager(const ConnectionManager&) = delete;
  ConnectionManager& operator=(const ConnectionManager&) = delete;

  // -- shared resources ------------------------------------------------------
  verbs::Cq& cq() { return cq_; }
  verbs::Srq& srq() { return srq_; }

  /// Drain the shared CQ in CQ order, handing each completion to the
  /// on_wc of the connection its QP carries.  A completion whose qp_num
  /// names no QP, a QP created without a connection (e.g. a dedicated
  /// channel's), or a connection with no handler is dropped (rule
  /// conn.demux).  Returns the number
  /// dispatched.  The on-push dispatch event calls this; a handler may
  /// connect() meanwhile.
  int drain();

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

  /// The channel holding `id` is gone: clear the connection's on_ready
  /// and on_wc, so neither a late connect reply nor a completion reaches
  /// it.  The chain itself stays in RTS, unused.
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
  /// unique_ptr: each QP's context points at its Connection, which must
  /// not move as the vector grows.
  std::vector<std::unique_ptr<Connection>> conns_;
  std::map<std::uint64_t, Ready> expected_;
  std::size_t reserve_target_ = 0;
  std::uint64_t next_recv_wr_id_ = 0;
  std::uint64_t total_establishments_ = 0;
  bool dispatch_scheduled_ = false;
  bool refill_scheduled_ = false;
};

}  // namespace partib::mpi

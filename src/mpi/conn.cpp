#include "mpi/conn.hpp"

#include <utility>

#include "check/hooks.hpp"
#include "common/assert.hpp"
#include "mpi/world.hpp"

namespace partib::mpi {

namespace {

// SRQ provisioning floor; reserve_recv_wrs grows the SRQ past it when the
// channels' reservations outrun it.
constexpr int kSrqFloor = 1024;
// SRQ low watermark: the limit event schedules a refill when the posted
// count drops below it (dispatch() refills after every batch too).
constexpr int kSrqLimit = 64;

verbs::Srq& make_srq(Rank& rank) {
  verbs::SrqAttrs attrs;
  attrs.max_wr = kSrqFloor;
  attrs.srq_limit = kSrqLimit;
  return rank.pd().create_srq(attrs);
}

}  // namespace

ConnectionManager::ConnectionManager(Rank& rank)
    : rank_(rank),
      cq_(rank.context().create_cq(rank.world().options().cq_depth)),
      srq_(make_srq(rank)) {
  cq_.set_on_push([this] { schedule_dispatch(); });
  srq_.set_on_limit([this] { schedule_refill(); });
}

ConnectionManager::~ConnectionManager() = default;

int ConnectionManager::drain() {
  // Dispatch straight over the CQ ring instead of copying completions out
  // through poll(): one shared CQ aggregates many QPs' bursts, and the
  // copy it saves pays for the per-Wc context load and handler
  // indirection (BM_SharedCqDemux vs BM_CqPollBurst).  A handler may push
  // into this same CQ (e.g. a flush completion from re-posting to an
  // errored sibling); a push can grow the ring and relocate the run, so
  // stop and re-peek whenever the capacity changes.  A handler may also
  // connect(), growing the device's QP tables, so each lookup goes back
  // through the device.
  const verbs::Device& dev = rank_.context().device();
  int dispatched = 0;
  for (;;) {
    const std::span<const verbs::Wc> run = cq_.peek_run();
    if (run.empty()) break;
    const std::size_t cap = cq_.ring_capacity();
    std::size_t done = 0;
    while (done < run.size()) {
      const verbs::Wc& wc = run[done++];
      auto* conn = static_cast<Connection*>(dev.qp_context(wc.qp_num));
      if (conn == nullptr || !conn->on_wc) {
        PARTIB_CHECK_HOOK(on_conn_demux_miss(rank_.id(), wc.qp_num));
        continue;
      }
      conn->on_wc(wc);
      ++dispatched;
      if (cq_.ring_capacity() != cap) break;
    }
    cq_.discard(static_cast<int>(done));
  }
  return dispatched;
}

void ConnectionManager::reserve_recv_wrs(std::size_t n) {
  reserve_target_ += n;
  if (reserve_target_ > static_cast<std::size_t>(srq_.attrs().max_wr)) {
    // Demand outran the provisioning floor: grow the SRQ.  The new bound
    // exceeds the floor, so it stays above the armed limit, which
    // resize() rejects crossing.
    PARTIB_ASSERT(ok(srq_.resize(static_cast<int>(reserve_target_))));
  }
  refill_srq();
}

void ConnectionManager::release_recv_wrs(std::size_t n) {
  PARTIB_ASSERT(n <= reserve_target_);
  reserve_target_ -= n;
}

ConnectionManager::ConnId ConnectionManager::connect(int peer, int qp_count,
                                                     std::uint64_t token,
                                                     Ready on_ready) {
  PARTIB_ASSERT(peer >= 0 && peer != rank_.id());
  Connection& conn = add_connection(peer, qp_count);
  conn.on_ready = std::move(on_ready);

  std::vector<std::uint32_t> qp_nums;
  qp_nums.reserve(conn.qps.size());
  for (verbs::Qp* qp : conn.qps) qp_nums.push_back(qp->qp_num());

  ConnectionManager* peer_mgr = &rank_.world().rank(peer).connections();
  const int from = rank_.id();
  const ConnId origin = conn.id;
  rank_.world().send_control(
      from, peer, [peer_mgr, from, token, qp_nums, origin] {
        peer_mgr->on_connect_request(from, token, qp_nums, origin);
      });
  return conn.id;
}

void ConnectionManager::release(ConnId id) {
  Connection& conn = connection(id);
  conn.on_ready = nullptr;
  conn.on_wc = nullptr;
}

ConnectionManager::Connection& ConnectionManager::connection(ConnId id) {
  PARTIB_ASSERT(id >= 0 && id < static_cast<ConnId>(conns_.size()));
  return *conns_[static_cast<std::size_t>(id)];
}

void ConnectionManager::expect(std::uint64_t token, Ready on_accept) {
  PARTIB_ASSERT_MSG(expected_.find(token) == expected_.end(),
                    "token already expected");
  expected_[token] = std::move(on_accept);
}

void ConnectionManager::forget(std::uint64_t token) { expected_.erase(token); }

void ConnectionManager::on_connect_request(
    int from, std::uint64_t token, const std::vector<std::uint32_t>& qp_nums,
    ConnId origin) {
  auto it = expected_.find(token);
  PARTIB_ASSERT_MSG(it != expected_.end(),
                    "connect request for a token nobody expects");
  Ready on_accept = std::move(it->second);
  expected_.erase(it);

  Connection& conn = add_connection(from, static_cast<int>(qp_nums.size()));
  establish(conn, qp_nums);

  std::vector<std::uint32_t> mine;
  mine.reserve(conn.qps.size());
  for (verbs::Qp* qp : conn.qps) mine.push_back(qp->qp_num());

  ConnectionManager* origin_mgr = &rank_.world().rank(from).connections();
  rank_.world().send_control(rank_.id(), from, [origin_mgr, origin, mine] {
    origin_mgr->on_connect_reply(origin, mine);
  });
  on_accept(conn);
}

void ConnectionManager::on_connect_reply(
    ConnId local, const std::vector<std::uint32_t>& qp_nums) {
  Connection& conn = connection(local);
  establish(conn, qp_nums);
  // Empty when the connection was released before the reply landed.
  if (Ready on_ready = std::exchange(conn.on_ready, nullptr)) on_ready(conn);
}

ConnectionManager::Connection& ConnectionManager::add_connection(
    int peer, int qp_count) {
  PARTIB_ASSERT(qp_count > 0);
  auto conn = std::make_unique<Connection>();
  conn->id = static_cast<ConnId>(conns_.size());
  conn->peer = peer;
  for (int i = 0; i < qp_count; ++i) {
    verbs::Qp& qp =
        rank_.pd().create_qp(cq_, cq_, verbs::QpCaps{}, &srq_, conn.get());
    PARTIB_ASSERT(ok(qp.to_init()));
    conn->qps.push_back(&qp);
  }
  conns_.push_back(std::move(conn));
  return *conns_.back();
}

void ConnectionManager::establish(Connection& conn,
                                  const std::vector<std::uint32_t>& qp_nums) {
  PARTIB_ASSERT(!conn.established && qp_nums.size() == conn.qps.size());
  for (std::size_t i = 0; i < conn.qps.size(); ++i) {
    PARTIB_ASSERT(ok(conn.qps[i]->to_rtr(qp_nums[i])));
    PARTIB_ASSERT(ok(conn.qps[i]->to_rts()));
  }
  conn.established = true;
  ++total_establishments_;
}

void ConnectionManager::refill_srq() {
  // Top the SRQ back up to the reservation sum.  reserve_recv_wrs grew the
  // capacity bound past the target, so these posts cannot hit max_wr.
  while (srq_.posted() < reserve_target_) {
    verbs::RecvWr wr;
    wr.wr_id = next_recv_wr_id_++;
    PARTIB_ASSERT(ok(srq_.post_recv(wr)));
  }
  // Re-arm the one-shot low-watermark event for the next drain.
  PARTIB_ASSERT(ok(srq_.arm_limit(kSrqLimit)));
}

void ConnectionManager::schedule_refill() {
  if (refill_scheduled_) return;
  refill_scheduled_ = true;
  rank_.world().engine().schedule_after(
      0,
      [this] {
        refill_scheduled_ = false;
        refill_srq();
      },
      "conn.srq_refill");
}

void ConnectionManager::schedule_dispatch() {
  if (dispatch_scheduled_) return;
  dispatch_scheduled_ = true;
  rank_.world().engine().schedule_after(0, [this] { dispatch(); },
                                        "conn.dispatch");
}

void ConnectionManager::dispatch() {
  dispatch_scheduled_ = false;
  drain();
  // Completions mean receive WRs were consumed — restock opportunistically
  // so a quiet SRQ never sits below the reservation waiting for the limit
  // event.
  if (srq_.posted() < reserve_target_) refill_srq();
}

}  // namespace partib::mpi

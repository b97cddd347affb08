// Shadow-state checker for the verbs transport layer.
//
// The verbs objects (Qp/Cq/Mr) are mirrored in an independent shadow
// registry keyed by object address; every hook re-validates the attempted
// operation against the shadow, so the checker catches both caller misuse
// (post to a QP that never reached RTS) and library-internal
// inconsistencies (a CQ pushed past its depth, an accepted WR beyond
// max_send_wr).  Hooks are invoked from src/verbs via PARTIB_CHECK_HOOK
// (check/hooks.hpp) and compile away when PARTIB_CHECK=OFF.
//
// Keys are `const void*` rather than verbs types so this library depends
// only on the header-only verbs vocabulary (verbs/types.hpp), keeping the
// link order common → sim → check → ... → verbs acyclic.
#pragma once

#include <cstddef>
#include <cstdint>

#include "verbs/types.hpp"

namespace partib::check {

// -- lifecycle ---------------------------------------------------------------
/// (Re)initialise the shadow for a QP.  Address reuse across simulations in
/// one process is expected; creation always starts a fresh shadow.
void on_qp_created(const void* qp, std::uint32_t qp_num,
                   const verbs::QpCaps& caps);
void on_cq_created(const void* cq, int depth);
void on_mr_registered(const void* pd, std::uint64_t addr, std::size_t len,
                      std::uint32_t lkey, std::uint32_t rkey,
                      unsigned access);

// -- QP state machine --------------------------------------------------------
/// An ibv_modify_qp-style transition was *attempted* toward `target`;
/// `applied` says whether the library accepted it.  Illegal attempts
/// violate rule qp.transition whether or not the library rejected them
/// (the caller is buggy either way); an *applied* illegal transition is a
/// library bug and is reported likewise.
void on_qp_transition(const void* qp, verbs::QpState target, bool applied);

/// to_reset was attempted with `outstanding` send WRs still in flight —
/// their flush CQEs would be orphaned (rule qp.reset_outstanding).
void on_qp_reset_outstanding(const void* qp, int outstanding);

// -- work submission ---------------------------------------------------------
/// post_send attempted.  Validates shadow state (qp.post_state), SGE/MR
/// coverage (wr.lkey, wr.access) and RDMA target rkey/bounds/permissions
/// (wr.rkey).  The immediate is opaque here: the part layer checks the
/// ones it encodes (on_imm_encoded, rule imm.roundtrip).
void on_post_send(const void* qp, const void* pd, const verbs::SendWr& wr);
/// The library accepted the WR: shadow capacity accounting
/// (qp.send_capacity when the accepted count exceeds max_send_wr).
void on_send_accepted(const void* qp);
void on_send_completed(const void* qp);

/// post_recv attempted / accepted / consumed by a delivery.
void on_post_recv(const void* qp, const void* pd, const verbs::RecvWr& wr);
void on_recv_accepted(const void* qp);
void on_recv_consumed(const void* qp);

// -- completion queues -------------------------------------------------------
/// A CQE is being raised; pending+1 > depth violates cq.overflow.
void on_cq_push(const void* cq);
/// `n` CQEs were drained by a poll.
void on_cq_poll(const void* cq, int n);

// -- shared receive queues ---------------------------------------------------
void on_srq_created(const void* srq, const verbs::SrqAttrs& attrs);
/// post_recv attempted on the SRQ.  Validates SGE/MR coverage (wr.lkey,
/// wr.access) and capacity (srq.capacity when the shadow count is already
/// at max_wr).
void on_srq_post(const void* srq, const void* pd, const verbs::RecvWr& wr);
void on_srq_accepted(const void* srq);
/// A delivery dequeued one WR from the SRQ.
void on_srq_consumed(const void* srq);
/// arm_limit attempted; limit outside [0, max_wr) violates srq.limit.
void on_srq_armed(const void* srq, int limit);
/// The library applied a capacity resize.
void on_srq_resized(const void* srq, int max_wr);

namespace detail {
void reset_verbs_shadow();
}  // namespace detail

}  // namespace partib::check

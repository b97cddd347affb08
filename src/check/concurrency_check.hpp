// Dynamic concurrency auditors: lock-order cycles and cross-thread
// ownership.
//
// Two runtime oracles for the concurrency discipline the static layer
// (common/thread_annotations.hpp + the partib_lint checks) cannot prove:
//
//  * **Lock-order auditor** — observes every partib::Mutex
//    acquire/release (via the common/mutex.hpp observer hooks) and builds
//    a process-wide directed graph over *lock classes* (Mutex names;
//    anonymous mutexes are their own class).  Acquiring B while holding A
//    records the edge A→B; if an acquisition closes a cycle in that
//    graph, the discipline admits a deadlock interleaving — even if this
//    particular run never deadlocks — and rule `check.lock_order` fires
//    (once per offending ordered pair).  Nesting two locks of the *same*
//    class also reports: same-class nesting deadlocks unless every thread
//    orders instances identically, a discipline nothing here enforces.
//
//  * **Cross-thread ownership auditor** — DES-domain objects (QPs, CQs,
//    partitioned requests) are single-owner: the thread that first
//    touches one owns it.  A touch from any other thread while holding no
//    audited lock fires `check.cross_thread`.  Holding any partib::Mutex
//    at the access counts as synchronized (the future sharded-progress
//    runtime will take a shard lock before touching foreign objects);
//    explicit handoff uses rebind_owner().  The hook sites are the verbs
//    and partitioned entry points (Qp::post_send, Cq::poll, pready,
//    parrived) — exactly the surfaces an MPI_THREAD_MULTIPLE runtime
//    drives concurrently, making this the differential oracle that
//    threaded mode will be tested against.
//
// Both auditors are opt-in at runtime (default off: zero cost beyond one
// relaxed atomic load per Mutex operation) and only exist under
// PARTIB_CHECK=ON; with checking off the Mutex observer call sites
// compile away entirely.
#pragma once

#include <cstddef>

namespace partib::check {

// --- lock-order auditor ------------------------------------------------

void lock_audit_enable(bool on);
bool lock_audit_enabled();

/// Process-wide count of check.lock_order reports (unlike
/// check::violations(), which is per-thread, this is visible from any
/// thread — the offending acquire may happen on a worker).
std::size_t lock_order_reports();

// --- cross-thread ownership auditor ------------------------------------

void owner_audit_enable(bool on);
bool owner_audit_enabled();

/// Process-wide count of check.cross_thread reports.
std::size_t cross_thread_reports();

/// Hook site: the calling thread touched `obj` (a DES-domain object);
/// `kind` labels it in diagnostics ("qp", "cq", "psend", "precv").  First
/// touch claims ownership.  No-op unless the owner audit is enabled.
void on_owned_access(const void* obj, const char* kind);

/// Drop `obj` from the ownership map (call when an audited object dies so
/// a reused address cannot inherit a stale owner).
void forget_owned(const void* obj);

/// Explicit ownership handoff: the calling thread becomes the owner.
void rebind_owner(const void* obj);

// --- shard-affinity auditor ---------------------------------------------
//
// The sharded progress runtime (src/runtime/) partitions QPs and CQs into
// shards, each drained by exactly one progress context at a time.  Verbs
// objects carry a shard tag (Qp::set_shard / Cq::set_shard) and the
// drain loop declares its shard via ScopedShardAffinity; touching an
// object tagged for a *different* shard from inside a drain fires
// `check.shard_affinity` — the dynamic proof that the shard partitioning
// is real and not just a naming convention.  Accesses outside any drain
// (DES mode, registration phase) are exempt: affinity is a property of
// the drain loops, not of single-threaded setup code.

void shard_audit_enable(bool on);
bool shard_audit_enabled();

/// Process-wide count of check.shard_affinity reports.
std::size_t shard_affinity_reports();

/// Hook site: `obj` (tagged `object_shard`; kNoShard = untagged) was
/// touched.  Reports when both the object's tag and the calling thread's
/// active shard are set and differ.
void on_shard_access(const void* obj, int object_shard, const char* kind);

/// Declare the calling thread's active shard (kNoShard to clear).
void set_active_shard(int shard);
int active_shard();

inline constexpr int kNoShard = -1;

/// RAII shard declaration for drain loops (restores the previous shard, so
/// nested drains — which the runtime never does, but tests do — unwind).
class ScopedShardAffinity {
 public:
  explicit ScopedShardAffinity(int shard) : prev_(active_shard()) {
    set_active_shard(shard);
  }
  ~ScopedShardAffinity() { set_active_shard(prev_); }
  ScopedShardAffinity(const ScopedShardAffinity&) = delete;
  ScopedShardAffinity& operator=(const ScopedShardAffinity&) = delete;

 private:
  int prev_;
};

/// Number of audited (partib::Mutex) locks the calling thread holds.
/// Only meaningful while an auditor is enabled (the observer is otherwise
/// not installed).
std::size_t held_lock_count();

/// RAII enables for tests.
class ScopedLockAudit {
 public:
  ScopedLockAudit() { lock_audit_enable(true); }
  ~ScopedLockAudit() { lock_audit_enable(false); }
  ScopedLockAudit(const ScopedLockAudit&) = delete;
  ScopedLockAudit& operator=(const ScopedLockAudit&) = delete;
};

class ScopedOwnerAudit {
 public:
  ScopedOwnerAudit() { owner_audit_enable(true); }
  ~ScopedOwnerAudit() { owner_audit_enable(false); }
  ScopedOwnerAudit(const ScopedOwnerAudit&) = delete;
  ScopedOwnerAudit& operator=(const ScopedOwnerAudit&) = delete;
};

class ScopedShardAudit {
 public:
  ScopedShardAudit() { shard_audit_enable(true); }
  ~ScopedShardAudit() { shard_audit_enable(false); }
  ScopedShardAudit(const ScopedShardAudit&) = delete;
  ScopedShardAudit& operator=(const ScopedShardAudit&) = delete;
};

namespace detail {
/// Full auditor reset: disables both audits, clears the order graph, the
/// ownership map, the report counters, and the calling thread's held-lock
/// stack.  Wired into check::reset().
void reset_concurrency_shadow();
}  // namespace detail

}  // namespace partib::check

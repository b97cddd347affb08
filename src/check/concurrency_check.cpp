#include "check/concurrency_check.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/mutex.hpp"

// The auditor must not audit itself: every mutex in this file is a raw
// std::mutex on purpose (a common::Mutex here would re-enter the observer
// it implements), so the wrapper-only check is off for the whole file.
// NOLINTBEGIN(partib-mutex-wrapper-only)

namespace partib::check {

namespace {

std::atomic<bool> g_lock_audit{false};
std::atomic<bool> g_owner_audit{false};
std::atomic<bool> g_shard_audit{false};
std::atomic<std::uint64_t> g_lock_order_count{0};
std::atomic<std::uint64_t> g_cross_thread_count{0};
std::atomic<std::uint64_t> g_shard_affinity_count{0};

// Shard the calling thread has declared itself to be draining
// (ScopedShardAffinity); kNoShard outside any drain.
thread_local int t_active_shard = kNoShard;

// One entry per partib::Mutex the calling thread currently holds.
struct HeldLock {
  const void* mu;
  std::string key;  // lock-class node key (see make_key)
};

thread_local std::vector<HeldLock> t_held;

// Re-entrancy guard: reporting a violation walks back into annotated
// library code (check::report -> find_rule -> the rule-registry
// partib::Mutex), whose observer callbacks must not recurse into the
// auditor while it is mid-update.
thread_local bool t_in_observer = false;

/// Lock-class node key: the Mutex name when it has one (all instances of
/// a class share a node, so an inversion is caught even when the two runs
/// never touch the same instance), else a per-instance address key.
std::string make_key(const void* mu, const char* name) {
  if (name != nullptr) return name;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "@%p", mu);
  return buf;
}

// Acquisition-order graph over lock-class keys, plus the set of ordered
// pairs already reported (one diagnostic per inversion, not one per
// occurrence).  Process-wide by construction — an inversion is two
// *threads'* histories disagreeing.
//
// Deliberately a raw std::mutex: a partib::Mutex here would invoke the
// observer from inside the observer.  The t_in_observer guard would
// suppress it, but the auditor's own lock must also never appear as a
// node in the graph it is checking.
std::mutex g_graph_mu;
std::unordered_map<std::string, std::unordered_set<std::string>> g_edges;
std::unordered_set<std::string> g_reported_pairs;

/// DFS: true when `from` can already reach `to` through recorded edges.
/// Caller holds g_graph_mu.
bool reaches(const std::string& from, const std::string& to) {
  if (from == to) return true;
  std::vector<const std::string*> stack{&from};
  std::unordered_set<std::string> seen{from};
  while (!stack.empty()) {
    const std::string* node = stack.back();
    stack.pop_back();
    auto it = g_edges.find(*node);
    if (it == g_edges.end()) continue;
    for (const std::string& next : it->second) {
      if (next == to) return true;
      if (seen.insert(next).second) stack.push_back(&next);
    }
  }
  return false;
}

// Ownership map for DES-domain objects.  Same raw-mutex reasoning as the
// graph lock: the auditor must not audit itself.
std::mutex g_owner_mu;
struct Owner {
  std::thread::id tid;
  const char* kind;
};
std::unordered_map<const void*, Owner> g_owner;

std::uint64_t tid_hash(std::thread::id tid) {
  return static_cast<std::uint64_t>(std::hash<std::thread::id>{}(tid));
}

void observer_acquire(const void* mu, const char* name) {
  if (t_in_observer) return;
  t_in_observer = true;
  std::string key = make_key(mu, name);
  if (g_lock_audit.load(std::memory_order_relaxed) && !t_held.empty()) {
    // Record held->key edges, then ask whether key already reaches any
    // held class — if so the new edges close a cycle.  Reports are
    // gathered under the lock but emitted after releasing it (report()
    // takes the rule-registry lock; keep the auditor's internal lock a
    // leaf).
    std::vector<std::string> inversions;
    {
      std::lock_guard<std::mutex> lock(g_graph_mu);
      for (const HeldLock& held : t_held) {
        if (reaches(key, held.key)) {
          std::string pair = held.key + " \xE2\x86\x92 " + key;
          if (g_reported_pairs.insert(pair).second) {
            inversions.push_back(held.key);
          }
        }
        g_edges[held.key].insert(key);
      }
    }
    for (const std::string& held_key : inversions) {
      g_lock_order_count.fetch_add(1, std::memory_order_relaxed);
      char detail[256];
      std::snprintf(detail, sizeof(detail),
                    "acquired '%s' while holding '%s', but '%s' is also "
                    "acquired while '%s' is held — the order graph now has "
                    "a cycle and a deadlock interleaving exists",
                    key.c_str(), held_key.c_str(), held_key.c_str(),
                    key.c_str());
      report("check.lock_order", key.c_str(), -1, detail);
    }
  }
  t_held.push_back(HeldLock{mu, std::move(key)});
  t_in_observer = false;
}

void observer_release(const void* mu, const char* /*name*/) {
  if (t_in_observer) return;
  // Non-LIFO release is legal (unlock order is the caller's), so search
  // from the top.  A miss means the lock predates audit enable.
  for (std::size_t i = t_held.size(); i > 0; --i) {
    if (t_held[i - 1].mu == mu) {
      t_held.erase(t_held.begin() + static_cast<std::ptrdiff_t>(i - 1));
      return;
    }
  }
}

constexpr common::MutexObserver kObserver{&observer_acquire, &observer_release};

void update_observer() {
  const bool want = g_lock_audit.load(std::memory_order_relaxed) ||
                    g_owner_audit.load(std::memory_order_relaxed);
  common::set_mutex_observer(want ? &kObserver : nullptr);
}

}  // namespace

void lock_audit_enable(bool on) {
  g_lock_audit.store(on, std::memory_order_relaxed);
  update_observer();
}

bool lock_audit_enabled() {
  return g_lock_audit.load(std::memory_order_relaxed);
}

std::size_t lock_order_reports() {
  return static_cast<std::size_t>(
      g_lock_order_count.load(std::memory_order_relaxed));
}

void owner_audit_enable(bool on) {
  g_owner_audit.store(on, std::memory_order_relaxed);
  update_observer();
}

bool owner_audit_enabled() {
  return g_owner_audit.load(std::memory_order_relaxed);
}

std::size_t cross_thread_reports() {
  return static_cast<std::size_t>(
      g_cross_thread_count.load(std::memory_order_relaxed));
}

void on_owned_access(const void* obj, const char* kind) {
  if (!g_owner_audit.load(std::memory_order_relaxed)) return;
  if (t_in_observer) return;
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id owner;
  {
    std::lock_guard<std::mutex> lock(g_owner_mu);
    auto it = g_owner.find(obj);
    if (it == g_owner.end()) {
      g_owner.emplace(obj, Owner{self, kind});
      return;
    }
    if (it->second.tid == self) return;
    // A foreign touch under any audited lock counts as synchronized —
    // the sharded-progress design takes a shard lock before crossing
    // ownership domains.
    if (!t_held.empty()) return;
    owner = it->second.tid;
  }
  g_cross_thread_count.fetch_add(1, std::memory_order_relaxed);
  char detail[192];
  std::snprintf(detail, sizeof(detail),
                "unsynchronized access from thread %016" PRIx64
                " to a %s owned by thread %016" PRIx64
                " (no audited lock held; rebind_owner() for handoff)",
                tid_hash(self), kind, tid_hash(owner));
  report("check.cross_thread", kind, -1, detail);
}

void forget_owned(const void* obj) {
  if (!g_owner_audit.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g_owner_mu);
  g_owner.erase(obj);
}

void rebind_owner(const void* obj) {
  if (!g_owner_audit.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g_owner_mu);
  auto it = g_owner.find(obj);
  if (it == g_owner.end()) return;
  it->second.tid = std::this_thread::get_id();
}

void shard_audit_enable(bool on) {
  g_shard_audit.store(on, std::memory_order_relaxed);
}

bool shard_audit_enabled() {
  return g_shard_audit.load(std::memory_order_relaxed);
}

std::size_t shard_affinity_reports() {
  return static_cast<std::size_t>(
      g_shard_affinity_count.load(std::memory_order_relaxed));
}

void on_shard_access(const void* obj, int object_shard, const char* kind) {
  if (!g_shard_audit.load(std::memory_order_relaxed)) return;
  if (t_in_observer) return;
  // Untagged objects and non-drain contexts are exempt (header comment).
  if (object_shard == kNoShard || t_active_shard == kNoShard) return;
  if (object_shard == t_active_shard) return;
  g_shard_affinity_count.fetch_add(1, std::memory_order_relaxed);
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "drain for shard %d touched a %s at %p tagged for shard %d "
                "— shard partitioning violated",
                t_active_shard, kind, obj, object_shard);
  report("check.shard_affinity", kind, -1, detail);
}

void set_active_shard(int shard) { t_active_shard = shard; }

int active_shard() { return t_active_shard; }

std::size_t held_lock_count() { return t_held.size(); }

namespace detail {

void reset_concurrency_shadow() {
  g_lock_audit.store(false, std::memory_order_relaxed);
  g_owner_audit.store(false, std::memory_order_relaxed);
  update_observer();
  g_shard_audit.store(false, std::memory_order_relaxed);
  g_lock_order_count.store(0, std::memory_order_relaxed);
  g_cross_thread_count.store(0, std::memory_order_relaxed);
  g_shard_affinity_count.store(0, std::memory_order_relaxed);
  t_active_shard = kNoShard;
  {
    std::lock_guard<std::mutex> lock(g_graph_mu);
    g_edges.clear();
    g_reported_pairs.clear();
  }
  {
    std::lock_guard<std::mutex> lock(g_owner_mu);
    g_owner.clear();
  }
  t_held.clear();
}

}  // namespace detail

}  // namespace partib::check

// NOLINTEND(partib-mutex-wrapper-only)

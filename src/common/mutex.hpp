// Annotated mutual exclusion, the only lock the library uses.
//
// partib::Mutex wraps std::mutex with three additions:
//
//  1. Clang thread-safety capability attributes
//     (common/thread_annotations.hpp), so `PARTIB_GUARDED_BY(mu)` members
//     are compiler-checked under -Wthread-safety (PARTIB_THREAD_SAFETY=ON).
//     std::mutex is invisible to that analysis, which is why the
//     partib-mutex-wrapper-only lint check bans it outside src/common/.
//
//  2. A lock *name* — a string literal identifying the lock class (all
//     per-shard locks share "runtime.shard").  The lock-order auditor
//     builds its graph over classes, so an inversion between two instances
//     of different classes is caught even when the two runs that exhibit
//     each direction never touch the same instance.
//
//  3. Acquire/release observer hooks for the PARTIB_CHECK concurrency
//     auditor (check/concurrency_check.hpp): lock-order-cycle and
//     cross-thread-ownership auditing.  With PARTIB_CHECK=OFF the hook
//     call sites compile away and Mutex is exactly std::mutex.
#pragma once

#include <mutex>

#include "common/thread_annotations.hpp"

namespace partib::common {

/// Acquire/release observer, installed once by the concurrency auditor
/// (must point at static-lifetime storage; fields may not be null).
struct MutexObserver {
  void (*on_acquire)(const void* mu, const char* name);
  void (*on_release)(const void* mu, const char* name);
};

/// Install `obs` (nullptr uninstalls).  Not synchronized against in-flight
/// lock operations: install before spawning audited threads (the auditor
/// does this from its enable call, which tests issue up front).
void set_mutex_observer(const MutexObserver* obs);
const MutexObserver* mutex_observer();

class PARTIB_CAPABILITY("mutex") Mutex {
 public:
  /// `name` identifies the lock class for deadlock-order auditing and
  /// diagnostics; use a string literal ("runtime.shard").  nullptr
  /// makes the instance its own anonymous class.
  explicit Mutex(const char* name = nullptr) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PARTIB_ACQUIRE() {
    mu_.lock();
    note_acquired();
  }

  void unlock() PARTIB_RELEASE() {
    note_released();
    mu_.unlock();
  }

  bool try_lock() PARTIB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    note_acquired();
    return true;
  }

  const char* name() const { return name_; }

 private:
  void note_acquired() {
#if PARTIB_CHECK_ENABLED
    if (const MutexObserver* obs = mutex_observer()) {
      obs->on_acquire(this, name_);
    }
#endif
  }

  void note_released() {
#if PARTIB_CHECK_ENABLED
    if (const MutexObserver* obs = mutex_observer()) {
      obs->on_release(this, name_);
    }
#endif
  }

  std::mutex mu_;
  const char* name_;
};

/// RAII lock; the std::lock_guard of this library.  (std::lock_guard
/// itself carries no capability annotations, so the analysis would not see
/// the acquisition.)
class PARTIB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PARTIB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PARTIB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace partib::common

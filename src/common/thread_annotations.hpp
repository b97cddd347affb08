// Static analysis annotations.
//
// Two families live here, both of which compile to nothing on toolchains
// that cannot check them:
//
//  1. Clang thread-safety-analysis attributes (PARTIB_GUARDED_BY,
//     PARTIB_REQUIRES, ...).  Under clang with -Wthread-safety (CMake
//     option PARTIB_THREAD_SAFETY=ON) the compiler proves that every
//     access to an annotated member happens with the right partib::Mutex
//     held.  Under GCC — or clang without the warning — the macros expand
//     to nothing and the annotated code is byte-identical to unannotated
//     code.  The vocabulary mirrors the clang documentation
//     (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) with a
//     PARTIB_ prefix so call sites do not collide with other libraries'
//     shims.
//
//  2. PARTIB_HOT: marks a steady-state fast-path function (pready -> WQE
//     -> CQ plane, engine dispatch).  It expands to [[gnu::hot]]; the
//     partib-no-alloc-in-hot-path check (partib_lint, tools/tidy-plugin)
//     keys on the marker to reject heap allocation in the marked function
//     at analysis time, complementing the PARTIB_CHECK runtime
//     no-allocation asserts.
//
// Only partib::Mutex / partib::MutexLock (common/mutex.hpp) carry the
// capability attributes; raw std::mutex is invisible to the analysis,
// which is why the partib-mutex-wrapper-only check bans it outside
// src/common/.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define PARTIB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PARTIB_THREAD_ANNOTATION(x)  // no-op: GCC cannot check these
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define PARTIB_CAPABILITY(x) PARTIB_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose lifetime equals a capability hold.
#define PARTIB_SCOPED_CAPABILITY PARTIB_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be read/written with `x` held.
#define PARTIB_GUARDED_BY(x) PARTIB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x` (the pointer itself
/// is not).
#define PARTIB_PT_GUARDED_BY(x) PARTIB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and still held
/// on exit).
#define PARTIB_REQUIRES(...) \
  PARTIB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on exit, not on entry).
#define PARTIB_ACQUIRE(...) \
  PARTIB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry, not on exit).
#define PARTIB_RELEASE(...) \
  PARTIB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define PARTIB_TRY_ACQUIRE(ret, ...) \
  PARTIB_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (deadlock guard for non-reentrant locks).
#define PARTIB_EXCLUDES(...) \
  PARTIB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Returns a reference to the capability protecting the returned object.
#define PARTIB_RETURN_CAPABILITY(x) \
  PARTIB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's locking is deliberately invisible to the
/// analysis (e.g. lock handoff across threads).  Every use needs a comment
/// justifying why the analysis cannot express it.
#define PARTIB_NO_THREAD_SAFETY_ANALYSIS \
  PARTIB_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Hot-path marker (see header comment, family 2).

#if defined(__GNUC__)
#define PARTIB_HOT [[gnu::hot]]
#else
#define PARTIB_HOT
#endif

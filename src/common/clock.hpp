// The sanctioned monotonic clock for real-time backends.
//
// The deterministic layers (src/sim, src/fabric, src/verbs, src/part and
// the backends under src/backend) are forbidden from touching wall-clock
// sources directly — the partib-no-wall-clock-in-sim lint enforces it —
// because an accidental `steady_clock::now()` in a DES code path silently
// destroys replayability.  Real-time transports still need real time, so
// this header is the single audited exemption: mono_now() is the only
// place the process clock is read, and real-time code (backend/shm/,
// runtime bridges) calls it by its partib name, which the lint recognises
// as sanctioned.
//
// The value is nanoseconds on CLOCK_MONOTONIC, normalised by the caller
// (backends subtract their construction instant so Time stays "ns since
// backend start", mirroring the DES convention of "ns since simulation
// start").  Never use this for DES timelines: virtual time comes from
// sim::Engine::now().
//
// The same exemption covers the other side of real time, waiting for it:
// mono_sleep_until() is the one place a real-time pump blocks on the
// clock, and cpu_relax() is its busy-poll hint for waits too short to
// sleep through.
#pragma once

#include <cerrno>
#include <ctime>

#include "common/time.hpp"

namespace partib::common {

/// Raw monotonic process clock in nanoseconds.  Monotone non-decreasing,
/// unaffected by wall-clock adjustments.
// NOLINTNEXTLINE(partib-no-wall-clock-in-sim)
inline Time mono_now() {
  timespec ts;                          // NOLINT(partib-no-wall-clock-in-sim)
  clock_gettime(CLOCK_MONOTONIC, &ts);  // NOLINT(partib-no-wall-clock-in-sim)
  return static_cast<Time>(ts.tv_sec) * kSecond +
         static_cast<Time>(ts.tv_nsec);
}

/// Block until mono_now() reads at least `t`.  Absolute (TIMER_ABSTIME),
/// so neither a signal nor a late re-arm stretches the wait: the only
/// overshoot is the kernel's timer slack (50 us by default on Linux).
// NOLINTNEXTLINE(partib-no-wall-clock-in-sim)
inline void mono_sleep_until(Time t) {
  timespec ts;  // NOLINT(partib-no-wall-clock-in-sim)
  ts.tv_sec = static_cast<time_t>(t / kSecond);
  ts.tv_nsec = static_cast<long>(t % kSecond);
  // NOLINTNEXTLINE(partib-no-wall-clock-in-sim)
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Busy-poll hint for one spin iteration (x86 PAUSE, AArch64 YIELD): it
/// keeps a spinning core from flooding the memory pipeline and yields
/// issue slots to a sibling hyperthread.  A no-op elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace partib::common

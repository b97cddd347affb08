#include "backend/shm/shm_backend.hpp"

#include <algorithm>
#include <limits>

#include "common/clock.hpp"
#include "common/diag.hpp"

namespace partib::backend {
namespace {

ShmTransportOptions transport_options(const Config& config) {
  ShmTransportOptions o;
  o.nic = config.nic;
  o.copy_data = config.copy_data;
  return o;
}

// How far ahead of a deadline the pump stops sleeping and busy-polls.
// A sleep overshoots by the kernel's timer slack (50 us by default on
// Linux), so any wait shorter than about twice that is cheaper to spin
// through than to sleep, and a longer one sleeps to this far short of the
// deadline, then spins the rest.  A constant rather than a knob: it is a
// property of the kernel's timer, not of the workload.
constexpr Duration kSpinHorizon = usec(100);

constexpr Time kNever = std::numeric_limits<Time>::max();

}  // namespace

ShmBackend::ShmBackend(const Config& config)
    : transport_(transport_options(config)) {
  if (config.faults.enabled()) {
    transport_.set_fault_plan(fabric::FaultPlan(config.faults));
  }
}

void ShmBackend::progress() {
  const Time t = now();
  // Publish real elapsed time to the diagnostics clock so structured
  // diagnostics raised from shm progress carry a timestamp, mirroring
  // what engine dispatch does for DES callbacks.
  diag_set_time(t);
  engine_.run_until(t);
  transport_.progress_all(t);
}

std::size_t ShmBackend::run_until_idle() {
  std::size_t dispatched = 0;
  for (;;) {
    const Time t = now();
    diag_set_time(t);
    dispatched += engine_.run_until(t);
    const std::size_t moved = transport_.progress_all(t);
    if (engine_.empty() && transport_.idle()) break;
    if (moved != 0) continue;
    // Nothing moved: real time has to pass until the next timer or
    // fault hold.  Poll through short waits; sleep through long ones.
    // At least one side is pending (else the loop has ended), and the
    // transport reports `t` for anything it cannot see a deadline for.
    const Time due =
        std::min(engine_.next_time_bound().value_or(kNever),
                 transport_.next_due(t).value_or(kNever));
    if (due - t > kSpinHorizon) {
      transport_.sleep_until(due - kSpinHorizon);
    } else {
      common::cpu_relax();
    }
  }
  return dispatched;
}

}  // namespace partib::backend

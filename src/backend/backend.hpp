// The backend concept: a transport plus its progress discipline.
//
// A Transport (backend/transport.hpp) answers "how do bytes move"; a
// Backend answers "who advances time and pumps completions".  The two are
// deliberately separate because the progress models differ in kind:
//
//   des  — the sim::Engine IS the clock.  run_until_idle() dispatches the
//          event queue in virtual time; nothing ever waits on the wall
//          clock.  Deterministic; the oracle for every other backend.
//   shm  — real time.  The same sim::Engine is reused as a *timer
//          substrate*: part-layer δ timers and host-cost charges are
//          scheduled on it as before, but progress() drives it with the
//          monotonic clock (engine.run_until(now())) and then polls the
//          shared-memory rings.  Nothing is simulated; elapsed
//          nanoseconds are real nanoseconds.
//
// The part/agg/mpi layers construct their world through a Backend and
// call only engine() (timers) and transport() (ops) — which is what lets
// the conformance suite (tests/backend/) run the same test bodies over
// every registered backend, and the differential harness hold the shm
// data plane to the DES oracle's delivered bytes and completion sets.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "backend/transport.hpp"
#include "common/time.hpp"
#include "fabric/fault.hpp"
#include "fabric/nic_params.hpp"
#include "sim/engine.hpp"

namespace partib::backend {

/// Construction parameters shared by every backend.
struct Config {
  fabric::NicParams nic = fabric::NicParams::connectx5_edr();
  /// When false the transport skips payload memcpy (benchmark mode).
  bool copy_data = true;
  /// Deterministic fault injection (fabric/fault.hpp); all-zero rates are
  /// free on every backend.
  fabric::FaultPlanConfig faults{};
};

class Backend {
 public:
  virtual ~Backend() = default;
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Registry name ("des", "shm").
  virtual std::string_view name() const = 0;

  /// The op surface the verbs layer posts through.
  virtual Transport& transport() = 0;

  /// The scheduling substrate: timers for the part layer, host-cost
  /// resources for mpi::Rank.  For the DES backend this engine is also
  /// the transport's clock; for real-time backends it is a timer queue
  /// driven by the monotonic clock.
  virtual sim::Engine& engine() = 0;

  /// True when Time is wall time (monotonic ns since backend start) and
  /// progress must be pumped; false when Time is virtual and
  /// deterministic.
  virtual bool real_time() const = 0;

  /// Current time on this backend's clock.
  virtual Time now() = 0;

  /// One progress pass: fire due timers, pump the transport.  Cheap when
  /// idle.  DES: dispatches at most one event (callers use
  /// run_until_idle for full drains).
  virtual void progress() = 0;

  /// Drive timers + transport until nothing is pending anywhere: no
  /// engine events, no in-flight ops, no undelivered control messages.
  /// Returns the number of engine events dispatched.  This is the
  /// backend-neutral spelling of the DES idiom `engine.run()`.
  virtual std::size_t run_until_idle() = 0;
};

using Factory = std::unique_ptr<Backend> (*)(const Config&);

/// Register a backend under `name`.  Called once per backend from this
/// library's registration path; re-registering a name replaces the
/// factory (tests use this to inject instrumented backends).
void register_backend(std::string_view name, Factory factory);

/// Construct a backend by name.  Unknown names return nullptr after
/// reporting a structured diagnostic listing what is registered.
std::unique_ptr<Backend> make_backend(std::string_view name,
                                      const Config& config = {});

/// Names in registration order ("des" first).
std::vector<std::string> backend_names();

/// True when `name` is registered.
bool backend_registered(std::string_view name);

}  // namespace partib::backend

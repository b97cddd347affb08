// The real-time shared-memory backend.
//
// Pairs a ShmTransport (backend/shm/shm_transport.hpp) with a sim::Engine
// reused as a *timer substrate*: the part layer's δ timers, zero-delay
// chains and host-cost resources are scheduled on the engine exactly as
// under DES, but here the engine's clock is slaved to the monotonic clock
// — every progress pass runs engine.run_until(mono_elapsed) and then
// polls the shm rings.  Elapsed nanoseconds are real nanoseconds; nothing
// is simulated.  A pass that moves nothing waits for the next deadline
// (engine timer or transport fault hold): it busy-polls when that is
// close and sleeps when it is far (docs/BACKENDS.md, progress
// discipline).
//
// Threading: this backend is a single-driver real-time pump — one thread
// owns the engine, all verbs objects and every node's progress (the
// Transport threading contract collapses to that thread).  Multi-threaded
// operation exercises the ShmTransport directly, one owner thread per
// node (tests/backend/shm_transport_test.cpp); the engine is not
// thread-safe and does not cross that line.
#pragma once

#include "backend/backend.hpp"
#include "backend/shm/shm_transport.hpp"
#include "sim/engine.hpp"

namespace partib::backend {

class ShmBackend final : public Backend {
 public:
  explicit ShmBackend(const Config& config);

  std::string_view name() const override { return "shm"; }
  Transport& transport() override { return transport_; }
  sim::Engine& engine() override { return engine_; }
  bool real_time() const override { return true; }
  Time now() override { return transport_.now(); }
  void progress() override;
  std::size_t run_until_idle() override;

  ShmTransport& shm() { return transport_; }

 private:
  sim::Engine engine_;
  ShmTransport transport_;
};

}  // namespace partib::backend

// The discrete-event backend: sim::Engine + fabric::Fabric, exactly the
// stack every figure and test ran on before backends existed.  Progress
// is event dispatch; Time is virtual; the timeline is a deterministic
// function of the post sequence (and byte-identical to the
// pre-refactoring fingerprints — pinned by repro/figures_test.cpp and the
// fig08/fig10-11 md5 ctests).
#pragma once

#include <memory>

#include "backend/backend.hpp"
#include "fabric/fabric.hpp"
#include "sim/engine.hpp"

namespace partib::backend {

class DesBackend final : public Backend {
 public:
  explicit DesBackend(const Config& config);

  std::string_view name() const override { return "des"; }
  Transport& transport() override { return fabric_; }
  sim::Engine& engine() override { return engine_; }
  bool real_time() const override { return false; }
  Time now() override { return engine_.now(); }
  void progress() override { (void)engine_.step(); }
  std::size_t run_until_idle() override { return engine_.run(); }

 private:
  sim::Engine engine_;
  fabric::Fabric fabric_;
};

}  // namespace partib::backend

// Shared test scaffolding: a two-(or N-)rank simulated world plus helpers
// for driving a partitioned channel through rounds.
#pragma once

#include <cstddef>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "sim/engine.hpp"
#include "support/backend_select.hpp"

namespace partib::test {

/// Fill a buffer with a deterministic per-round pattern so data-integrity
/// checks catch stale bytes from earlier rounds.
inline void fill_pattern(std::vector<std::byte>& buf, int round) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(round) * 29 + 7) & 0xFF);
  }
}

inline bool buffers_equal(const std::vector<std::byte>& a,
                          const std::vector<std::byte>& b) {
  return a == b;
}

struct ChannelFixture {
  /// Backend selected via current_backend() ("des" unless a
  /// backend-parameterized suite chose otherwise), built from the world
  /// options through mpi::backend_config.  Declared before `engine`,
  /// which is a reference into it.
  std::unique_ptr<backend::Backend> backend;
  sim::Engine& engine;
  std::unique_ptr<mpi::World> world;
  std::vector<std::byte> sbuf;
  std::vector<std::byte> rbuf;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;

  static backend::Backend& checked(std::unique_ptr<backend::Backend>& be) {
    PARTIB_ASSERT(be != nullptr);
    return *be;
  }

  ChannelFixture(std::size_t bytes, std::size_t partitions,
                 const part::Options& opts, mpi::WorldOptions wopts = {})
      : backend(backend::make_backend(current_backend(),
                                      mpi::backend_config(wopts))),
        engine(checked(backend).engine()) {
    world = std::make_unique<mpi::World>(*backend, wopts);
    sbuf.resize(bytes);
    rbuf.resize(bytes);
    PARTIB_ASSERT(partib::ok(part::psend_init(world->rank(0), sbuf, partitions,
                                              /*dst=*/1, /*tag=*/3,
                                              /*comm=*/0, opts, &send)));
    PARTIB_ASSERT(partib::ok(part::precv_init(world->rank(1), rbuf, partitions,
                                              /*src=*/0, /*tag=*/3,
                                              /*comm=*/0, opts, &recv)));
  }

  /// Drive the backend to quiescence: engine.run() on DES, the real-time
  /// progress pump on shm.  Cross-backend test bodies must use this (or
  /// run_round) instead of engine.run().
  void drive() { backend->run_until_idle(); }

  /// Run one full round: start both sides, mark every partition ready (in
  /// index order, immediately), and drive the backend to quiescence.
  void run_round(int round) {
    fill_pattern(sbuf, round);
    PARTIB_ASSERT(partib::ok(send->start()));
    PARTIB_ASSERT(partib::ok(recv->start()));
    for (std::size_t i = 0; i < send->user_partitions(); ++i) {
      PARTIB_ASSERT(partib::ok(send->pready(i)));
    }
    drive();
  }
};

inline part::Options options_with(std::shared_ptr<const agg::Aggregator> a) {
  part::Options o;
  o.aggregator = std::move(a);
  return o;
}

inline part::Options ploggp_options() {
  return options_with(std::make_shared<agg::PLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured()));
}

inline part::Options persistent_options() {
  return options_with(std::make_shared<agg::PersistentBaseline>());
}

inline part::Options static_options(std::size_t tp, int qps) {
  return options_with(std::make_shared<agg::StaticAggregator>(tp, qps));
}

inline part::Options tuning_table_options() {
  return options_with(std::make_shared<agg::TuningTableAggregator>(
      agg::TuningTable::niagara_prebuilt()));
}

inline part::Options timer_options(Duration delta) {
  return options_with(std::make_shared<agg::TimerPLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured(), delta));
}

/// Wraps a uniform-layout aggregator and pins its plan's
/// transport-partition count and/or QP count (0 keeps the inner plan's
/// value); psend clamps a pinned count above the user partitions as it
/// clamps any plan's.
class PinnedPlanAggregator final : public agg::Aggregator {
 public:
  PinnedPlanAggregator(std::shared_ptr<const agg::Aggregator> inner,
                       std::size_t tp, int qps)
      : inner_(std::move(inner)), tp_(tp), qps_(qps) {}

  agg::Plan plan(std::size_t user_partitions,
                 std::size_t total_bytes) const override {
    agg::Plan p = inner_->plan(user_partitions, total_bytes);
    if (tp_ != 0) p.transport_partitions = tp_;
    if (qps_ != 0) p.qp_count = qps_;
    return p;
  }
  const char* name() const override { return inner_->name(); }
  std::string describe() const override {
    return inner_->describe() + "/tp=" + std::to_string(tp_) +
           "/qps=" + std::to_string(qps_);
  }

 private:
  std::shared_ptr<const agg::Aggregator> inner_;
  std::size_t tp_;
  int qps_;
};

/// `opts` with its aggregator's plan pinned to `tp` transport partitions
/// and `qps` QPs (0 = the plan decides).
inline part::Options pinned_options(part::Options opts, std::size_t tp,
                                    int qps = 0) {
  opts.aggregator =
      std::make_shared<PinnedPlanAggregator>(opts.aggregator, tp, qps);
  return opts;
}

inline part::Options learning_options(Duration delta0 = msec(4),
                                      model::ArrivalLearnConfig cfg = {}) {
  return options_with(std::make_shared<agg::ArrivalLearningAggregator>(
      model::LogGPParams::niagara_mpi_measured(), delta0, cfg));
}

}  // namespace partib::test

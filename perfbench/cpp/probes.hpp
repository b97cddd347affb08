// Outside-in probes for the traced benchmark run.
//
// Nothing here changes library code: every number is taken at a public
// boundary the library already offers.
//
//   * Probe — a span stack plus per-bucket tallies.  A span's self time
//     is its duration minus the spans nested inside it, so an engine
//     event that posts an RDMA write is charged to its own layer only
//     for the part outside the post.
//   * The engine's dispatch observer opens one span per event and closes
//     it at the next dispatch (or when the drain returns), classified by
//     the event's site tag: psend.* / precv.* / conn.* / bench.* (this
//     benchmark's own scheduled events) / everything else, which is the
//     fabric, the fluid network and the sim resources.
//   * TracingTransport / TracingBackend — forwarding decorators over a
//     backend, registered as "traced-<name>" through
//     backend::register_backend.  They time posts, completion upcalls,
//     control deliveries and drains.
//   * TracingAggregator — a forwarding agg::Aggregator whose name() and
//     describe() are the wrapped strategy's, so trial fingerprints and
//     derived seeds do not move.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "agg/aggregator.hpp"
#include "backend/backend.hpp"
#include "backend/transport.hpp"
#include "part/options.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

/// Resource usage deltas for the calling thread (RUSAGE_THREAD) or the
/// whole process (RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  std::int64_t nvcsw = 0;
  double peak_rss_mb = 0.0;

  static Usage thread();
  static Usage process();
  Usage operator-(const Usage& earlier) const;
};

/// Thread CPU time (user + sys) in nanoseconds.
std::int64_t thread_cpu_ns();

enum class Bucket : std::size_t {
  // engine events, by site tag
  kPsendEvent,
  kPrecvEvent,
  kConnEvent,
  kBenchEvent,
  kUntaggedEvent,
  // spans opened around public calls
  kPost,
  kUpcall,
  kControl,
  kPlan,
  kStart,
  kPready,
  kCount,
};

struct Tally {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;
};

class Probe {
 public:
  Probe() { stack_.reserve(16); }

  /// Open a span; returns its start time.
  std::int64_t enter() {
    stack_.push_back(0);
    return now_ns();
  }
  /// Close the innermost span opened at `t0` and charge it to `b`;
  /// returns its duration.
  std::int64_t leave(Bucket b, std::int64_t t0) {
    const std::int64_t dur = now_ns() - t0;
    const std::int64_t nested = stack_.back();
    stack_.pop_back();
    if (!stack_.empty()) stack_.back() += dur;
    Tally& t = tally(b);
    t.self_ns += dur - nested;
    t.total_ns += dur;
    ++t.calls;
    return dur;
  }

  /// Engine dispatch observer body: closes the running event's span and
  /// opens one for the event about to run.
  void on_dispatch(const char* site, std::size_t pending);
  /// Close the running event's span (the drain returned).
  void close_event();

  Tally& tally(Bucket b) { return tallies_[static_cast<std::size_t>(b)]; }
  const Tally& tally(Bucket b) const {
    return tallies_[static_cast<std::size_t>(b)];
  }

  std::uint64_t events = 0;
  std::int64_t event_ns = 0;  ///< total event span time, nesting included
  std::size_t pending_max = 0;
  std::uint64_t group_timer_fires = 0;

  // Drain (Backend::run_until_idle) accounting.
  std::int64_t drain_wall_ns = 0;
  std::int64_t drain_cpu_ns = 0;
  std::int64_t drain_nvcsw = 0;
  std::uint64_t drains = 0;

 private:
  std::array<Tally, static_cast<std::size_t>(Bucket::kCount)> tallies_{};
  std::vector<std::int64_t> stack_;
  bool event_open_ = false;
  Bucket event_bucket_ = Bucket::kUntaggedEvent;
  std::int64_t event_t0_ = 0;
};

/// RAII span.
class Span {
 public:
  Span(Probe* probe, Bucket b) : probe_(probe), b_(b) {
    if (probe_ != nullptr) t0_ = probe_->enter();
  }
  ~Span() {
    if (probe_ != nullptr) probe_->leave(b_, t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Probe* probe_;
  Bucket b_;
  std::int64_t t0_ = 0;
};

/// Forwarding transport: every call goes to `inner`; posts, completion
/// upcalls and control deliveries are timed into `probe`.
class TracingTransport final : public partib::backend::Transport {
 public:
  TracingTransport(partib::backend::Transport& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  std::string_view kind() const override { return inner_.kind(); }
  partib::fabric::NodeId add_node() override { return inner_.add_node(); }
  int node_count() const override { return inner_.node_count(); }
  bool copies_data() const override { return inner_.copies_data(); }
  void post_rdma_write(partib::fabric::RdmaOp op) override;
  void send_control(partib::fabric::NodeId src, partib::fabric::NodeId dst,
                    std::function<void()> deliver) override;
  const partib::fabric::FabricStats& stats() const override {
    return inner_.stats();
  }
  std::size_t wire_bytes_for(std::size_t bytes) const override {
    return inner_.wire_bytes_for(bytes);
  }
  void set_fault_plan(const partib::fabric::FaultPlan& plan) override {
    inner_.set_fault_plan(plan);
  }
  const partib::fabric::FaultPlan& fault_plan() const override {
    return inner_.fault_plan();
  }
  void inject_qp_error(std::uint64_t src_qp) override {
    inner_.inject_qp_error(src_qp);
  }
  bool qp_chain_errored(std::uint64_t src_qp) override {
    return inner_.qp_chain_errored(src_qp);
  }
  void reset_qp_chain(std::uint64_t src_qp) override {
    inner_.reset_qp_chain(src_qp);
  }
  void set_trace(partib::fabric::TraceSink* sink) override {
    inner_.set_trace(sink);
  }
  partib::fabric::TraceSink* trace() override { return inner_.trace(); }

 private:
  partib::backend::Transport& inner_;
  Probe& probe_;
};

/// Forwarding backend: owns the wrapped backend, hangs `probe` on its
/// engine's dispatch observer, and times every drain.
class TracingBackend final : public partib::backend::Backend {
 public:
  TracingBackend(std::unique_ptr<partib::backend::Backend> inner,
                 Probe& probe);
  ~TracingBackend() override;

  std::string_view name() const override { return inner_->name(); }
  partib::backend::Transport& transport() override { return transport_; }
  partib::sim::Engine& engine() override { return inner_->engine(); }
  bool real_time() const override { return inner_->real_time(); }
  partib::Time now() override { return inner_->now(); }
  void progress() override;
  std::size_t run_until_idle() override;

 private:
  std::unique_ptr<partib::backend::Backend> inner_;
  Probe& probe_;
  TracingTransport transport_;
};

/// Register "traced-des" and "traced-shm".  Their factories wrap the
/// plain backend of the same name around the probe installed with
/// set_active_probe(), which must outlive every backend they make.
void register_traced_backends();
void set_active_probe(Probe* probe);

/// Forwarding aggregator that times plan() into `probe`.
class TracingAggregator final : public partib::agg::Aggregator {
 public:
  TracingAggregator(std::shared_ptr<const partib::agg::Aggregator> inner,
                    Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  partib::agg::Plan plan(std::size_t user_partitions,
                         std::size_t total_bytes) const override {
    Span span(probe_, Bucket::kPlan);
    return inner_->plan(user_partitions, total_bytes);
  }
  const char* name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::shared_ptr<const partib::agg::Aggregator> inner_;
  Probe* probe_;
};

/// `opts` with its aggregator wrapped in a TracingAggregator.
partib::part::Options traced_options(partib::part::Options opts,
                                     Probe* probe);

}  // namespace perfbench

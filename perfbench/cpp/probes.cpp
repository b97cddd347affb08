#include "probes.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <ctime>
#include <utility>

#include "common/assert.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.nvcsw = ru.ru_nvcsw;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

bool has_prefix(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

Bucket classify(const char* site) {
  if (site == nullptr) return Bucket::kUntaggedEvent;
  if (has_prefix(site, "psend.")) return Bucket::kPsendEvent;
  if (has_prefix(site, "precv.")) return Bucket::kPrecvEvent;
  if (has_prefix(site, "conn.")) return Bucket::kConnEvent;
  if (has_prefix(site, "bench.")) return Bucket::kBenchEvent;
  return Bucket::kUntaggedEvent;  // fabric.* fault paths
}

Probe* g_active_probe = nullptr;

template <const char* kInner>
std::unique_ptr<partib::backend::Backend> make_traced(
    const partib::backend::Config& config) {
  PARTIB_ASSERT_MSG(g_active_probe != nullptr,
                    "traced backend made without an active probe");
  auto inner = partib::backend::make_backend(kInner, config);
  PARTIB_ASSERT(inner != nullptr);
  return std::make_unique<TracingBackend>(std::move(inner), *g_active_probe);
}

constexpr char kDes[] = "des";
constexpr char kShm[] = "shm";

}  // namespace

Usage Usage::thread() { return usage(RUSAGE_THREAD); }
Usage Usage::process() { return usage(RUSAGE_SELF); }

Usage Usage::operator-(const Usage& earlier) const {
  Usage d;
  d.user_s = user_s - earlier.user_s;
  d.sys_s = sys_s - earlier.sys_s;
  d.minflt = minflt - earlier.minflt;
  d.nvcsw = nvcsw - earlier.nvcsw;
  d.peak_rss_mb = peak_rss_mb;
  return d;
}

void Probe::on_dispatch(const char* site, std::size_t pending) {
  close_event();
  ++events;
  if (pending > pending_max) pending_max = pending;
  event_bucket_ = classify(site);
  if (site != nullptr && std::strcmp(site, "psend.group_timer") == 0) {
    ++group_timer_fires;
  }
  event_t0_ = enter();
  event_open_ = true;
}

void Probe::close_event() {
  if (!event_open_) return;
  event_open_ = false;
  event_ns += leave(event_bucket_, event_t0_);
}

void TracingTransport::post_rdma_write(partib::fabric::RdmaOp op) {
  Probe* p = &probe_;
  if (op.move_data) {
    op.move_data = [p, f = std::move(op.move_data)] {
      Span s(p, Bucket::kUpcall);
      f();
    };
  }
  if (op.on_send_complete) {
    op.on_send_complete = [p, f = std::move(op.on_send_complete)](
                              partib::Time t) {
      Span s(p, Bucket::kUpcall);
      f(t);
    };
  }
  if (op.on_recv_complete) {
    op.on_recv_complete = [p, f = std::move(op.on_recv_complete)](
                              partib::Time t) {
      Span s(p, Bucket::kUpcall);
      f(t);
    };
  }
  Span s(p, Bucket::kPost);
  inner_.post_rdma_write(std::move(op));
}

void TracingTransport::send_control(partib::fabric::NodeId src,
                                    partib::fabric::NodeId dst,
                                    std::function<void()> deliver) {
  Probe* p = &probe_;
  inner_.send_control(src, dst, [p, f = std::move(deliver)] {
    Span s(p, Bucket::kControl);
    f();
  });
}

TracingBackend::TracingBackend(
    std::unique_ptr<partib::backend::Backend> inner, Probe& probe)
    : inner_(std::move(inner)),
      probe_(probe),
      transport_(inner_->transport(), probe) {
  partib::sim::Engine& engine = inner_->engine();
  engine.set_dispatch_observer(
      [p = &probe_, e = &engine](partib::Time, std::uint64_t,
                                 const char* site) {
        p->on_dispatch(site, e->pending());
      });
}

TracingBackend::~TracingBackend() {
  inner_->engine().set_dispatch_observer(nullptr);
}

void TracingBackend::progress() {
  inner_->progress();
  probe_.close_event();
}

std::size_t TracingBackend::run_until_idle() {
  const Usage u0 = Usage::thread();
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t t0 = now_ns();
  const std::size_t n = inner_->run_until_idle();
  probe_.close_event();
  probe_.drain_wall_ns += now_ns() - t0;
  probe_.drain_cpu_ns += thread_cpu_ns() - cpu0;
  probe_.drain_nvcsw += (Usage::thread() - u0).nvcsw;
  ++probe_.drains;
  return n;
}

void register_traced_backends() {
  partib::backend::register_backend("traced-des", &make_traced<kDes>);
  partib::backend::register_backend("traced-shm", &make_traced<kShm>);
}

void set_active_probe(Probe* probe) { g_active_probe = probe; }

partib::part::Options traced_options(partib::part::Options opts,
                                     Probe* probe) {
  opts.aggregator =
      std::make_shared<TracingAggregator>(std::move(opts.aggregator), probe);
  return opts;
}

}  // namespace perfbench

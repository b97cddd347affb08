// partib end-to-end benchmark: the measuring program run.py builds.
//
//   perfbench --workload zoo|incast|sweep3d|shm-rt --seed N --seconds S
//             --trace 0|1
//
// Untraced (--trace 0): run whole passes over the workload until S
// seconds have gone by, each pass after a set-up of its own, and report
// the end-to-end metrics (spec.json defines each).  DES workloads go
// through the src/bench grid runners (jobs=1, no cache), one config per
// call so every trial is timed; shm-rt runs real-time channels over the
// shm backend.  Host times are rescaled to reference-host speed
// (hostspeed.hpp).
//
// Traced (--trace 1): passes of the trial forms, each trial also
// re-driven plain and traced (redrive.hpp), and the per-layer metrics
// taken from outside each layer (probes.hpp).
//
// The last stdout line is one JSON object: attempted / failed operation
// counts, the metrics, and the per-row result digests of the first pass,
// which run.py compares with spec.json.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/trial.hpp"
#include "hostspeed.hpp"
#include "probes.hpp"
#include "redrive.hpp"
#include "runner/runner.hpp"
#include "workloads.hpp"

namespace bench = partib::bench;
using namespace perfbench;

namespace {

// shm-rt rounds per block; a pass is one block at each partition size.
constexpr int kShmRounds = 200;
// DES set-ups per pass: more samples for setup_s, which is short.
constexpr int kSetUpsPerPass = 3;
// DES trials per row and pass at most (rows faster than the median repeat).
constexpr int kMaxRepsPerPass = 8;

struct Args {
  Workload workload = Workload::kZoo;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Row {
  std::string digest;
  bool seed_free = false;
};

struct Output {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t passes = 0;
  std::map<std::string, double> metrics;
  std::vector<Row> rows;
};

// The per-layer metrics, in the order they are printed; spec.json maps
// each to the end-to-end metric it should move.
const char* const kLayerMetrics[] = {
    "bench.trial_ms",          "bench.minflt_per_trial",
    "bench.sys_frac",          "bench.harness_ms",
    "runner.overhead_ms",      "sim.events",
    "sim.events_per_op",       "sim.event_ns",
    "sim.pending_max",         "fabric.ops",
    "fabric.post_ns",          "fabric.untagged_self_ms",
    "fabric.untagged_ns_per_op", "fabric.sim_wqe_wait_ns",
    "fabric.sim_queue_wait_ns", "fabric.sim_wire_ns",
    "fabric.wire_overhead",    "verbs.upcall_ns",
    "verbs.wrs_per_epoch",     "verbs.hot_qps",
    "verbs.hot_cqs",           "verbs.hot_srqs",
    "mpi.world_ms",            "mpi.channel_init_us",
    "mpi.handshake_ms",        "mpi.establishments",
    "mpi.recycles",            "mpi.conn_self_ms",
    "mpi.control_self_ms",     "part.start_ns",
    "part.pready_ns",          "part.psend_self_ms",
    "part.precv_self_ms",      "part.group_timer_fires",
    "part.replans_adopted",    "agg.plan_us",
    "backend.post_ns",         "backend.progress_ms",
    "backend.sleeps_per_round", "backend.idle_frac",
    "backend.timer_events_per_round", "backend.small_round_us_p50",
    "backend.round_us_p99",    "backend.rounds",
    "trace.overhead",
};

const char* const kEndToEndMetrics[] = {
    "wall_s", "setup_s", "peak_rss_mb", "sim_gbps", "rt_gbps", "rt_op_us_p50",
};

/// Per-layer numbers every workload derives the same way from the probe
/// and the summed re-drive counters.  `passes` normalises per-pass
/// counts; `real_time` says which backend the probe watched.
void layer_metrics(const Probe& p, const TrialLayers& traced,
                   const TrialLayers& plain, double passes, bool real_time,
                   std::map<std::string, double>& m) {
  const double ms = 1e6;
  const auto& T = [&p](Bucket b) -> const Tally& { return p.tally(b); };
  const double rounds = static_cast<double>(traced.rounds);
  m["sim.events"] = ratio(static_cast<double>(p.events), passes);
  m["sim.events_per_op"] = ratio(static_cast<double>(p.events), rounds);
  m["sim.event_ns"] =
      ratio(static_cast<double>(p.event_ns), static_cast<double>(p.events));
  m["sim.pending_max"] = static_cast<double>(p.pending_max);
  m["fabric.ops"] = ratio(static_cast<double>(traced.fabric.rdma_ops), passes);
  const double post_ns = ratio(static_cast<double>(T(Bucket::kPost).total_ns),
                               static_cast<double>(T(Bucket::kPost).calls));
  m[real_time ? "backend.post_ns" : "fabric.post_ns"] = post_ns;
  const double untagged = static_cast<double>(T(Bucket::kUntaggedEvent).self_ns);
  m["fabric.untagged_self_ms"] = ratio(untagged / ms, passes);
  m["fabric.untagged_ns_per_op"] =
      ratio(untagged, static_cast<double>(traced.fabric.rdma_ops));
  const double traced_ops = static_cast<double>(traced.traced_ops);
  m["fabric.sim_wqe_wait_ns"] =
      ratio(static_cast<double>(traced.wqe_wait_ns), traced_ops);
  m["fabric.sim_queue_wait_ns"] =
      ratio(static_cast<double>(traced.queue_wait_ns), traced_ops);
  m["fabric.sim_wire_ns"] = ratio(static_cast<double>(traced.wire_ns), traced_ops);
  m["fabric.wire_overhead"] =
      ratio(static_cast<double>(traced.fabric.wire_bytes),
            static_cast<double>(traced.fabric.payload_bytes));
  m["verbs.upcall_ns"] = ratio(static_cast<double>(T(Bucket::kUpcall).total_ns),
                               static_cast<double>(T(Bucket::kUpcall).calls));
  m["verbs.wrs_per_epoch"] =
      ratio(static_cast<double>(traced.wrs_posted),
            static_cast<double>(traced.sender_rounds));
  const double trials = static_cast<double>(traced.world_count);
  m["verbs.hot_qps"] = ratio(static_cast<double>(traced.hot.qps), trials);
  m["verbs.hot_cqs"] = ratio(static_cast<double>(traced.hot.cqs), trials);
  m["verbs.hot_srqs"] = ratio(static_cast<double>(traced.hot.srqs), trials);
  const double plain_trials = static_cast<double>(plain.world_count);
  m["mpi.world_ms"] = ratio(static_cast<double>(plain.world_ns) / ms, plain_trials);
  m["mpi.channel_init_us"] = ratio(static_cast<double>(plain.init_ns) / 1e3,
                                   static_cast<double>(plain.inits));
  m["mpi.handshake_ms"] =
      ratio(static_cast<double>(plain.handshake_ns) / ms, plain_trials);
  m["mpi.establishments"] =
      ratio(static_cast<double>(traced.establishments), passes);
  m["mpi.recycles"] = ratio(static_cast<double>(traced.recycles), passes);
  m["mpi.conn_self_ms"] =
      ratio(static_cast<double>(T(Bucket::kConnEvent).self_ns) / ms, passes);
  m["mpi.control_self_ms"] =
      ratio(static_cast<double>(T(Bucket::kControl).self_ns) / ms, passes);
  m["part.start_ns"] = ratio(static_cast<double>(T(Bucket::kStart).total_ns),
                             static_cast<double>(T(Bucket::kStart).calls));
  m["part.pready_ns"] = ratio(static_cast<double>(T(Bucket::kPready).total_ns),
                              static_cast<double>(T(Bucket::kPready).calls));
  m["part.psend_self_ms"] =
      ratio(static_cast<double>(T(Bucket::kPsendEvent).self_ns) / ms, passes);
  m["part.precv_self_ms"] =
      ratio(static_cast<double>(T(Bucket::kPrecvEvent).self_ns) / ms, passes);
  m["part.group_timer_fires"] =
      ratio(static_cast<double>(p.group_timer_fires), passes);
  m["part.replans_adopted"] =
      ratio(static_cast<double>(traced.replans_adopted), passes);
  m["agg.plan_us"] = ratio(static_cast<double>(T(Bucket::kPlan).total_ns) / 1e3,
                           static_cast<double>(T(Bucket::kPlan).calls));
  m["backend.progress_ms"] =
      ratio(static_cast<double>(p.drain_wall_ns) / ms, passes);
  m["backend.sleeps_per_round"] =
      ratio(static_cast<double>(p.drain_nvcsw), rounds);
  // Clamped: the CPU and wall clocks tick at different granularities.
  m["backend.idle_frac"] = std::max(
      0.0, 1.0 - ratio(static_cast<double>(p.drain_cpu_ns),
                       static_cast<double>(p.drain_wall_ns)));
  if (real_time) {
    m["backend.timer_events_per_round"] =
        ratio(static_cast<double>(p.events), rounds);
  }
}

template <typename Config, typename Result>
struct DesWorkload {
  std::function<std::vector<Config>(std::uint64_t)> grid;
  std::vector<Result> (*run_grid)(const std::vector<Config>&,
                                  const partib::runner::RunOptions&,
                                  partib::runner::RunStats*);
  Result (*trial)(const Config&);
  partib::runner::Codec<Result> (*codec)();
  Result (*redrive)(const Config&, Probe*, TrialLayers*);
};

/// peak_rss_mb is the high-water mark after the first set-up and pass:
/// the memory one pass needs.  Later passes only add what the allocator
/// happens to keep of freed trial buffers, which differs run to run.
void record_peak_rss(Output& out) {
  out.metrics["peak_rss_mb"] = Usage::process().peak_rss_mb;
}

partib::runner::RunOptions serial_options() {
  partib::runner::RunOptions o;
  o.jobs = 1;
  o.cache = nullptr;
  return o;
}

template <typename Config, typename Result>
bool check_row(const Config& cfg, const Result& r, std::size_t i,
               Output& out);

/// One set-up: generate the grid (configs and their aggregators; the
/// tuning table is parsed here), then run its first row once so the
/// allocator, the code and the library's lazy state are warm before the
/// timed pass.  Appends its host seconds to `setups` and samples `speed`
/// after it.
template <typename Config, typename Result>
std::vector<Config> set_up(const DesWorkload<Config, Result>& w,
                           const Args& a, Output& out,
                           std::vector<double>* setups, HostSpeed* speed) {
  const std::int64_t t0 = now_ns();
  std::vector<Config> grid = w.grid(a.seed);
  const Result r = w.run_grid({grid.front()}, serial_options(), nullptr).front();
  setups->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  if (speed != nullptr) speed->sample_after(setups->back());
  ++out.attempted;
  if (!check_row(grid.front(), r, 0, out)) ++out.failed;
  return grid;
}

/// A trial's result passes its check when the simulated figure is a
/// positive finite number and the digest repeats the first pass's.
template <typename Config, typename Result>
bool check_row(const Config& cfg, const Result& r, std::size_t i,
               Output& out) {
  const double g = sim_gbps(cfg, r);
  const std::string d = digest(r);
  if (out.rows.size() <= i) {
    out.rows.push_back({d, seed_free(cfg)});
    return std::isfinite(g) && g > 0.0;
  }
  return d == out.rows[i].digest;
}

template <typename Config, typename Result>
void run_des_untraced(const DesWorkload<Config, Result>& w, const Args& a,
                      Output& out) {
  const partib::runner::RunOptions opts = serial_options();
  // Every pass sets up afresh, so setup_s is a median over set-ups spread
  // through the run.  The host-speed reference runs after every set-up
  // and trial; each pass's host seconds are rescaled by its factor
  // (hostspeed.hpp).  Each row counts with the median of its rescaled
  // trials: wall_s is the pass they make, rt_op_us_p50 their geomean.
  // After the first pass a row much faster than the median row runs
  // several trials per pass, so its median rests on as many samples.
  HostSpeed speed;
  std::vector<double> setups;
  std::vector<std::vector<double>> trial_s;
  std::vector<int> reps;
  std::vector<double> gbps;
  double pass_payload = 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  do {
    speed.reset();
    std::vector<double> pass_setups;
    std::vector<std::vector<double>> pass_trials;
    std::vector<Config> grid;
    for (int k = 0; k < kSetUpsPerPass; ++k) {
      grid = set_up(w, a, out, &pass_setups, &speed);
    }
    trial_s.resize(grid.size());
    pass_trials.resize(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const int n = reps.empty() ? 1 : reps[i];
      for (int k = 0; k < n; ++k) {
        const std::int64_t t0 = now_ns();
        const Result r = w.run_grid({grid[i]}, opts, nullptr).front();
        pass_trials[i].push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        speed.sample_after(pass_trials[i].back());
        ++out.attempted;
        if (out.passes == 0) {
          gbps.push_back(sim_gbps(grid[i], r));
          pass_payload += payload_bytes(grid[i]);
        }
        if (!check_row(grid[i], r, i, out)) ++out.failed;
      }
    }
    const double f = speed.factor();
    double raw = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      raw += pass_trials[i].front();
      for (const double t : pass_trials[i]) trial_s[i].push_back(t * f);
    }
    for (const double s : pass_setups) setups.push_back(s * f);
    if (reps.empty()) {
      std::vector<double> first;
      for (const std::vector<double>& t : pass_trials) first.push_back(t.front());
      const double mid = median(first);
      for (const double t : first) {
        reps.push_back(static_cast<int>(
            std::clamp(std::floor(mid / t), 1.0, double{kMaxRepsPerPass})));
      }
    }
    std::fprintf(stderr, "perfbench: pass %llu: %.4f host s, speed %.4f\n",
                 static_cast<unsigned long long>(out.passes), raw, f);
    if (out.passes == 0) record_peak_rss(out);
    ++out.passes;
  } while (now_ns() < deadline);

  double wall = 0.0;
  std::vector<double> row_us;
  for (const std::vector<double>& t : trial_s) {
    const double row = median(t);
    wall += row;
    row_us.push_back(row * 1e6);
  }
  out.metrics["wall_s"] = wall;
  out.metrics["setup_s"] = median(setups);
  out.metrics["sim_gbps"] = geomean(gbps);
  out.metrics["rt_gbps"] = pass_payload / wall * 1e-9;
  out.metrics["rt_op_us_p50"] = geomean(row_us);
  std::fprintf(stderr, "perfbench: %llu passes over %zu rows\n",
               static_cast<unsigned long long>(out.passes), trial_s.size());
}

template <typename Config, typename Result>
void run_des_traced(const DesWorkload<Config, Result>& w, const Args& a,
                    Output& out) {
  std::vector<double> setups;
  const std::vector<Config> grid = set_up(w, a, out, &setups, nullptr);
  const partib::runner::RunOptions opts = serial_options();
  Probe probe;
  TrialLayers plain, traced;
  double trial_ns = 0.0, harness_ns = 0.0, runner_ns = 0.0;
  double minflt = 0.0, user_s = 0.0, sys_s = 0.0;
  double plain_ns = 0.0, traced_ns = 0.0;
  std::uint64_t trials = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  do {
    // The trial forms through the runner, each timed from inside it.
    std::vector<std::int64_t> tw(grid.size(), 0);
    std::size_t k = 0;
    auto timed_trial = [&](const Config& c) {
      const Usage u0 = Usage::thread();
      const std::int64_t t0 = now_ns();
      Result r = w.trial(c);
      tw[k] = now_ns() - t0;
      const Usage du = Usage::thread() - u0;
      minflt += static_cast<double>(du.minflt);
      user_s += du.user_s;
      sys_s += du.sys_s;
      ++k;
      return r;
    };
    const std::int64_t t_grid = now_ns();
    const std::vector<Result> results = partib::runner::run_trials<Config, Result>(
        grid, timed_trial, [](const Config& c) { return bench::fingerprint(c); },
        w.codec(), opts);
    runner_ns += static_cast<double>(now_ns() - t_grid);

    for (std::size_t i = 0; i < grid.size(); ++i) {
      runner_ns -= static_cast<double>(tw[i]);
      trial_ns += static_cast<double>(tw[i]);
      ++trials;
      ++out.attempted;
      if (!check_row(grid[i], results[i], i, out)) ++out.failed;
      const std::string want = digest(results[i]);
      // Plain re-drive: the layer time without observers.
      ++out.attempted;
      try {
        TrialLayers pl;
        const std::int64_t t0 = now_ns();
        const Result p = w.redrive(grid[i], nullptr, &pl);
        plain_ns += static_cast<double>(now_ns() - t0);
        harness_ns += static_cast<double>(tw[i] - pl.layer_ns);
        plain += pl;
        if (digest(p) != want) ++out.failed;
      } catch (const RedriveError& e) {
        std::fprintf(stderr, "perfbench: plain re-drive failed: %s\n", e.what());
        ++out.failed;
      }
      // Traced re-drive: the per-layer numbers.
      ++out.attempted;
      try {
        TrialLayers tl;
        const std::int64_t t0 = now_ns();
        const Result q = w.redrive(grid[i], &probe, &tl);
        traced_ns += static_cast<double>(now_ns() - t0);
        traced += tl;
        if (digest(q) != want) ++out.failed;
      } catch (const RedriveError& e) {
        std::fprintf(stderr, "perfbench: traced re-drive failed: %s\n",
                     e.what());
        ++out.failed;
      }
    }
    ++out.passes;
  } while (now_ns() < deadline);

  const double passes = static_cast<double>(out.passes);
  auto& m = out.metrics;
  m["bench.trial_ms"] = trial_ns / static_cast<double>(trials) * 1e-6;
  m["bench.minflt_per_trial"] = minflt / static_cast<double>(trials);
  m["bench.sys_frac"] = ratio(sys_s, user_s + sys_s);
  m["bench.harness_ms"] = harness_ns / static_cast<double>(trials) * 1e-6;
  m["runner.overhead_ms"] = runner_ns / passes * 1e-6;
  layer_metrics(probe, traced, plain, passes, /*real_time=*/false, m);
  m["trace.overhead"] = ratio(traced_ns, plain_ns);
}

// -- shm-rt -------------------------------------------------------------------

struct ShmPair {
  std::unique_ptr<ShmChannel> large;
  std::unique_ptr<ShmChannel> small;
};

ShmPair open_pair(const std::string& backend, Probe* probe) {
  ShmPair p;
  p.large = std::make_unique<ShmChannel>(backend, kShmLargePartition, probe);
  p.small = std::make_unique<ShmChannel>(backend, kShmSmallPartition, probe);
  return p;
}

/// One block of rounds; appends each round's duration (us) and returns
/// the block's wall time in seconds.
double shm_block(ShmChannel& ch, int& round_index, std::vector<double>* us,
                 double* bytes, Output& out) {
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < kShmRounds; ++r) {
    const std::int64_t ns = ch.round(round_index++);
    ++out.attempted;
    if (ns < 0) {
      ++out.failed;
      continue;
    }
    if (us != nullptr) us->push_back(static_cast<double>(ns) * 1e-3);
    if (bytes != nullptr) *bytes += static_cast<double>(ch.round_bytes());
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// One set-up: backend, world, both channels' init and handshake drain.
ShmPair set_up_shm(std::vector<double>* setups) {
  const std::int64_t t0 = now_ns();
  ShmPair pair = open_pair("shm", nullptr);
  setups->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  return pair;
}

/// The simulated twin: the large channel over the DES backend; its round
/// time gives shm-rt's sim_gbps and its data passes the same memcmp.
double shm_twin_gbps(Output& out) {
  ShmChannel twin("des", kShmLargePartition, nullptr);
  std::int64_t ns = -1;
  for (int r = 0; r < 3; ++r) {
    ns = twin.round(r);
    ++out.attempted;
    if (ns <= 0) {
      ++out.failed;
      return 0.0;
    }
  }
  return static_cast<double>(twin.round_bytes()) / static_cast<double>(ns);
}

void run_shm_untraced(const Args& a, Output& out) {
  out.metrics["sim_gbps"] = shm_twin_gbps(out);
  // Every pass also opens (and drops) a fresh pair, so setup_s is a median
  // over set-ups spread through the run; the timed rounds run on one
  // long-lived pair.  As on DES, each pass's host times are rescaled to
  // reference-host speed; wall_s is the median block.
  HostSpeed speed;
  std::vector<double> setups, pass_s, large_us, pass_setups;
  ShmPair pair = set_up_shm(&pass_setups);
  double bytes = 0.0;
  int large_index = 0, small_index = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  do {
    if (out.passes > 0) set_up_shm(&pass_setups);
    speed.sample_after(pass_setups.back());
    std::vector<double> pass_us;
    const double block_s =
        shm_block(*pair.large, large_index, &pass_us, &bytes, out);
    speed.sample_after(block_s);
    shm_block(*pair.small, small_index, nullptr, nullptr, out);
    const double f = speed.factor();
    speed.reset();
    pass_s.push_back(block_s * f);
    for (const double us : pass_us) large_us.push_back(us * f);
    for (const double s : pass_setups) setups.push_back(s * f);
    pass_setups.clear();
    if (out.passes == 0) record_peak_rss(out);
    ++out.passes;
  } while (now_ns() < deadline);
  double round_s = 0.0;
  for (const double us : large_us) round_s += us * 1e-6;
  out.metrics["wall_s"] = median(pass_s);
  out.metrics["setup_s"] = median(setups);
  out.metrics["rt_gbps"] = ratio(bytes, round_s) * 1e-9;
  out.metrics["rt_op_us_p50"] = median(large_us);
  std::fprintf(stderr, "perfbench: %llu passes, %zu round samples, p99 %.1f us\n",
               static_cast<unsigned long long>(out.passes), large_us.size(),
               percentile(large_us, 0.99));
}

void run_shm_traced(const Args& a, Output& out) {
  std::vector<double> setups;
  ShmPair pair = set_up_shm(&setups);
  Probe probe;
  ShmPair traced = open_pair("shm", &probe);
  std::vector<double> large_us, small_us;
  double plain_s = 0.0, traced_s = 0.0;
  int li = 0, si = 0, tli = 0, tsi = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  do {
    plain_s += shm_block(*pair.large, li, &large_us, nullptr, out);
    plain_s += shm_block(*pair.small, si, &small_us, nullptr, out);
    traced_s += shm_block(*traced.large, tli, nullptr, nullptr, out);
    traced_s += shm_block(*traced.small, tsi, nullptr, nullptr, out);
    ++out.passes;
  } while (now_ns() < deadline);

  TrialLayers plain_layers = pair.large->layers();
  plain_layers += pair.small->layers();
  TrialLayers traced_layers = traced.large->collect();
  traced_layers += traced.small->collect();
  auto& m = out.metrics;
  layer_metrics(probe, traced_layers, plain_layers,
                static_cast<double>(out.passes), /*real_time=*/true, m);
  m["backend.small_round_us_p50"] = median(small_us);
  m["backend.round_us_p99"] = percentile(large_us, 0.99);
  m["backend.rounds"] = static_cast<double>(large_us.size());
  m["trace.overhead"] = ratio(traced_s, plain_s);
}

// -- output -------------------------------------------------------------------

void print_json(const Output& out, bool trace) {
  std::string s = "{\"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"passes\": " + std::to_string(out.passes) +
                  ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    const auto it = out.metrics.find(name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s += std::string(first ? "" : ", ") + "\"" + name + "\": " + buf;
    first = false;
  };
  if (trace) {
    for (const char* name : kLayerMetrics) emit(name);
  } else {
    for (const char* name : kEndToEndMetrics) emit(name);
  }
  s += "}, \"rows\": [";
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    s += std::string(i ? ", " : "") + "{\"digest\": \"" + out.rows[i].digest +
         "\", \"seed_free\": " + (out.rows[i].seed_free ? "true" : "false") +
         "}";
  }
  s += "]}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload zoo|incast|sweep3d|shm-rt "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Args& a = *args;
  // A fixed mmap threshold turns off glibc's sliding one, under which
  // whether a freed multi-MiB trial buffer stays resident in the heap
  // depends on the order of earlier frees, and so on the seed: blocks of
  // 1 MiB and more are then always mapped on allocation and unmapped on
  // free, and peak_rss_mb measures memory the program holds.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Output out;
  try {
    switch (a.workload) {
      case Workload::kZoo: {
        const DesWorkload<bench::ZooConfig, bench::ZooResult> w{
            [](std::uint64_t seed) { return zoo_grid(seed, false); },
            bench::run_zoo_grid, bench::zoo_trial, bench::zoo_codec,
            redrive_zoo};
        a.trace ? run_des_traced(w, a, out) : run_des_untraced(w, a, out);
        break;
      }
      case Workload::kIncast: {
        const DesWorkload<bench::ConnScaleConfig, bench::ConnScaleResult> w{
            [](std::uint64_t) { return incast_grid(false); },
            bench::run_connscale_grid, bench::connscale_trial,
            bench::connscale_codec, redrive_connscale};
        a.trace ? run_des_traced(w, a, out) : run_des_untraced(w, a, out);
        break;
      }
      case Workload::kSweep3d: {
        const DesWorkload<bench::SweepConfig, bench::SweepResult> w{
            [](std::uint64_t seed) { return sweep_grid(seed, false); },
            bench::run_sweep_grid, bench::sweep_trial,
            bench::sweep_codec, redrive_sweep};
        a.trace ? run_des_traced(w, a, out) : run_des_untraced(w, a, out);
        break;
      }
      case Workload::kShmRt:
        a.trace ? run_shm_traced(a, out) : run_shm_untraced(a, out);
        break;
    }
  } catch (const RedriveError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_json(out, a.trace);
  return 0;
}

// The parallel experiment runner.
//
// A figure benchmark or tuning-table search is hundreds of *independent*
// DES trials — each builds its own DES backend and mpi::World on it, runs
// to quiescence, and reduces to a small result struct.  `run_trials` executes
// such a grid across host cores — the caller and up to jobs-1 threads
// claim trial indices from one atomic counter, which is all one fixed
// batch from one submitter needs — while keeping the three properties the
// figure pipeline depends on:
//
//  1. **Determinism** — each trial's RNG seed is a pure function of its
//     config (the drivers pin seeds; configs that ask for a derived seed
//     get runner::derive_seed(fingerprint)), and results are collected in
//     *submission order*, so the emitted CSV/table is byte-identical for
//     any worker count, including --jobs=1 (which runs every trial
//     inline on the calling thread, reproducing the historical serial
//     behaviour exactly — no threads are even spawned).
//  2. **Freshness** — every result comes from running its trial in this
//     process; nothing is read back from an earlier run, so no row can
//     be stale.
//  3. **Isolation** — trials share no mutable state (the audit that made
//     the library safe for this is the thread_local conversion of the
//     diagnostics clock and checker shadow state; see docs/PERF.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/mutex.hpp"

namespace partib::runner {

/// Default worker count: PARTIB_JOBS when set (>= 1), otherwise the
/// hardware concurrency (>= 1).  A non-numeric PARTIB_JOBS aborts, so a
/// typo is caught instead of silently ignored.
inline std::size_t default_jobs() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): the library never sets the environment.
  const char* env = std::getenv("PARTIB_JOBS");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const long long jobs = std::strtoll(env, &end, 10);
    PARTIB_ASSERT_MSG(*end == '\0', "PARTIB_JOBS is not an integer");
    if (jobs > 0) return static_cast<std::size_t>(jobs);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct RunOptions {
  /// Worker threads; 0 means default_jobs() (PARTIB_JOBS env override,
  /// else hardware concurrency).  1 runs trials inline on the caller.
  std::size_t jobs = 0;
  /// perfbench's serial_options() still assigns `o.cache = nullptr`; a
  /// field that can point at nothing keeps that line compiling.  Deleted
  /// with perfbench's second trial-form copy (ROADMAP item 8).
  std::nullptr_t cache = nullptr;
};

struct RunStats {
  std::size_t trials = 0;  ///< grid size, every trial run
};

/// A Result's canonical text, generated from its field list: exact for
/// every leaf value, so two results that differ in any bit encode
/// differently.  perfbench's row digests hash it.
template <typename Result>
struct Codec {
  std::string (*encode)(const Result&) = nullptr;
};

namespace detail {

/// Encoder walk over a field list (common/fields.hpp): one token per
/// leaf, single-space separated.  Signed integers print as PRId64,
/// unsigned integers as PRIu64, doubles as %a hexfloats (exact, so -0.0,
/// denormals and infinities stay distinct); arrays print element by
/// element.
struct EncodeWalk {
  std::string& out;

  template <typename... Fields>
  void operator()(const Fields&... fields) { (put(fields), ...); }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (std::is_arithmetic_v<T>) {
      char buf[64];
      if constexpr (std::is_floating_point_v<T>) {
        std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
      } else if constexpr (std::is_signed_v<T>) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(v));
      } else {
        std::snprintf(buf, sizeof(buf), "%" PRIu64,
                      static_cast<std::uint64_t>(v));
      }
      if (!out.empty()) out += ' ';
      out += buf;
    } else {
      visit_fields(*this, v);
    }
  }
};

template <typename Result>
std::string encode_fields(const Result& r) {
  std::string out;
  visit_fields(EncodeWalk{out}, r);
  return out;
}

}  // namespace detail

/// The codec generated from Result's field list (common/fields.hpp).
template <typename Result>
Codec<Result> fields_codec() {
  return {&detail::encode_fields<Result>};
}

/// Execute `trial` over every config, in parallel, returning results in
/// submission order.
template <typename Config, typename Result, typename TrialFn>
std::vector<Result> run_trials(const std::vector<Config>& configs,
                               TrialFn trial, const RunOptions& opts,
                               RunStats* stats = nullptr) {
  const std::size_t n = configs.size();
  std::vector<Result> results(n);
  const std::size_t jobs = opts.jobs == 0 ? default_jobs() : opts.jobs;
  if (jobs <= 1 || n <= 1) {
    // Serial reference path: submission order on the calling thread.
    // Exceptions propagate directly — same observable behaviour as the
    // parallel path's keep-and-rethrow below.
    for (std::size_t i = 0; i < n; ++i) results[i] = trial(configs[i]);
  } else {
    // Self-scheduling: the caller and up to jobs-1 threads each claim the
    // next index from one counter until it passes the end.  A throwing
    // trial does not stop the others; the first exception is kept and
    // rethrown on the caller once every thread has joined.
    std::atomic<std::size_t> next{0};
    common::Mutex error_mutex{"runner.first_error"};
    std::exception_ptr first_error;  // written under error_mutex
    auto work = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          results[i] = trial(configs[i]);
        } catch (...) {
          common::MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    const std::size_t extra = std::min(jobs, n) - 1;
    std::vector<std::thread> threads;
    threads.reserve(extra);
    while (threads.size() < extra) {
      try {
        threads.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // out of threads: the ones running and the caller claim all
      }
    }
    work();
    for (std::thread& t : threads) t.join();
    // Every thread has joined, so results[] and first_error are quiescent.
    if (first_error) std::rethrow_exception(first_error);
  }

  if (stats != nullptr) stats->trials = n;
  return results;
}

/// perfbench's call shape, which still passes a fingerprint and a codec:
/// both are ignored.  Deleted with perfbench's second trial-form copy
/// (ROADMAP item 8).
template <typename Config, typename Result, typename TrialFn,
          typename FingerprintFn>
std::vector<Result> run_trials(const std::vector<Config>& configs,
                               TrialFn trial, FingerprintFn, Codec<Result>,
                               const RunOptions& opts) {
  return run_trials<Config, Result>(configs, std::move(trial), opts);
}

}  // namespace partib::runner

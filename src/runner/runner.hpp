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
//  2. **Memoization** — with a ResultCache attached, a trial whose
//     fingerprint is already on disk is decoded instead of simulated, so
//     re-running a figure or resuming an interrupted table search pays
//     only for what changed.
//  3. **Isolation** — trials share no mutable state (the audit that made
//     the library safe for this is the thread_local conversion of the
//     diagnostics clock and checker shadow state; see docs/PERF.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.hpp"
#include "common/mutex.hpp"
#include "runner/result_cache.hpp"

namespace partib::runner {

/// Default worker count: PARTIB_JOBS when set (>= 1), otherwise the
/// hardware concurrency (>= 1).
inline std::size_t default_jobs() {
  const std::int64_t env = env_int("PARTIB_JOBS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct RunOptions {
  /// Worker threads; 0 means default_jobs() (PARTIB_JOBS env override,
  /// else hardware concurrency).  1 runs trials inline on the caller.
  std::size_t jobs = 0;
  /// Persistent result cache; nullptr disables memoization.
  ResultCache* cache = nullptr;
};

struct RunStats {
  std::size_t trials = 0;      ///< grid size
  std::size_t cache_hits = 0;  ///< decoded from the cache
  std::size_t executed = 0;    ///< actually simulated
};

/// How a Result round-trips through the persistent cache.  Either
/// pointer may be null, which disables caching for the trial type.
/// Encode/decode must be exact (bit-level round-trip) — a decoded result
/// feeds the same formatting code as a fresh one and the output must not
/// depend on cache state.
template <typename Result>
struct Codec {
  std::string (*encode)(const Result&) = nullptr;
  bool (*decode)(std::string_view, Result*) = nullptr;
};

namespace detail {

/// Encoder walk over a field list (common/fields.hpp): one token per
/// leaf, single-space separated.  Signed integers print as PRId64,
/// unsigned integers as PRIu64, doubles as %a hexfloats (exact through
/// strtod); arrays print element by element.
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

/// Decoder walk, the inverse of EncodeWalk.  A token that is missing,
/// malformed or out of its field's range clears `ok`.
struct DecodeWalk {
  const char* p;
  bool ok = true;

  template <typename... Fields>
  void operator()(Fields&... fields) { (get(fields), ...); }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_array_v<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (!std::is_arithmetic_v<T>) {
      visit_fields(*this, v);
    } else if (ok) {
      char* next = nullptr;
      errno = 0;
      if constexpr (std::is_floating_point_v<T>) {
        // No errno check: strtod reports exact denormals as ERANGE.
        v = static_cast<T>(std::strtod(p, &next));
      } else if constexpr (std::is_signed_v<T>) {
        const long long x = std::strtoll(p, &next, 10);
        v = static_cast<T>(x);
        ok = errno == 0 && static_cast<long long>(v) == x;
      } else {
        const unsigned long long x = std::strtoull(p, &next, 10);
        v = static_cast<T>(x);
        // strtoull wraps "-1" to the maximum instead of failing.
        ok = errno == 0 && static_cast<unsigned long long>(v) == x &&
             std::find(p, static_cast<const char*>(next), '-') == next;
      }
      ok = ok && next != p;
      p = next;
    }
  }
};

template <typename Result>
std::string encode_fields(const Result& r) {
  std::string out;
  visit_fields(EncodeWalk{out}, r);
  return out;
}

/// Strict: the payload must hold exactly the listed fields (trailing
/// whitespace allowed), so a stale entry written for a result struct that
/// has since gained or lost a field is a miss, not a hit.
template <typename Result>
bool decode_fields(std::string_view s, Result* r) {
  const std::string text(s);  // strto* need a terminator
  DecodeWalk walk{text.c_str()};
  visit_fields(walk, *r);
  return walk.ok && walk.p + std::strspn(walk.p, " \t\n\r") ==
                        text.c_str() + text.size();
}

}  // namespace detail

/// The cache codec generated from Result's field list (common/fields.hpp).
template <typename Result>
Codec<Result> fields_codec() {
  return {&detail::encode_fields<Result>, &detail::decode_fields<Result>};
}

/// Execute `trial` over every config, in parallel, returning results in
/// submission order.  `fingerprint` must cover every config field that can
/// influence the result; runner::fingerprint_fields over the config's
/// field list (common/fields.hpp) does, by construction.
template <typename Config, typename Result, typename TrialFn,
          typename FingerprintFn>
std::vector<Result> run_trials(const std::vector<Config>& configs,
                               TrialFn trial, FingerprintFn fingerprint,
                               Codec<Result> codec, const RunOptions& opts,
                               RunStats* stats = nullptr) {
  const std::size_t n = configs.size();
  std::vector<Result> results(n);
  RunStats local;
  local.trials = n;

  const bool use_cache =
      opts.cache != nullptr && codec.encode != nullptr &&
      codec.decode != nullptr;
  std::vector<std::uint64_t> fps(use_cache ? n : 0);
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (use_cache) {
      fps[i] = fingerprint(configs[i]);
      if (auto payload = opts.cache->load(fps[i])) {
        if (codec.decode(*payload, &results[i])) {
          ++local.cache_hits;
          continue;
        }
      }
    }
    pending.push_back(i);
  }
  local.executed = pending.size();

  auto execute = [&](std::size_t i) {
    results[i] = trial(configs[i]);
    if (use_cache) opts.cache->store(fps[i], codec.encode(results[i]));
  };

  const std::size_t jobs = opts.jobs == 0 ? default_jobs() : opts.jobs;
  if (jobs <= 1 || pending.size() <= 1) {
    // Serial reference path: submission order on the calling thread.
    // Exceptions propagate directly — same observable behaviour as the
    // parallel path's keep-and-rethrow below.
    for (std::size_t i : pending) execute(i);
  } else {
    // Self-scheduling: the caller and up to jobs-1 threads each claim the
    // next pending index from one counter until it passes the end.  A
    // throwing trial does not stop the others; the first exception is
    // kept and rethrown on the caller once every thread has joined.
    std::atomic<std::size_t> next{0};
    common::Mutex error_mutex{"runner.first_error"};
    std::exception_ptr first_error;  // written under error_mutex
    auto work = [&] {
      for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
           k < pending.size();
           k = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          execute(pending[k]);
        } catch (...) {
          common::MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    const std::size_t extra = std::min(jobs, pending.size()) - 1;
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

  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace partib::runner

// Shared helpers for the figure/table bench binaries: a tiny CLI
// (--csv for machine-readable output, --iters=N to override iteration
// counts, --jobs=N for the parallel experiment runner,
// --loggp=L,o_s,o_r,g,G / --delta0=NS to swap the machine model and
// initial timer window) and canned part::Options constructors for each
// design.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>

#include "agg/strategies.hpp"
#include "bench/report.hpp"
#include "part/options.hpp"
#include "runner/runner.hpp"

namespace partib::bench {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        csv_ = true;
      } else if (std::strncmp(argv[i], "--iters=", 8) == 0) {
        iters_override_ = parse_positive(argv[i] + 8, "--iters");
      } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
        jobs_ = static_cast<std::size_t>(parse_positive(argv[i] + 7,
                                                        "--jobs"));
      } else if (std::strncmp(argv[i], "--loggp=", 8) == 0) {
        parse_loggp(argv[i] + 8);
      } else if (std::strncmp(argv[i], "--delta0=", 9) == 0) {
        delta0_ = static_cast<Duration>(
            parse_positive(argv[i] + 9, "--delta0"));
      }
    }
  }

  bool csv() const { return csv_; }
  int iterations(int fallback) const {
    return iters_override_ > 0 ? iters_override_ : fallback;
  }

  /// The machine model the drivers should plan with: --loggp=L,o_s,o_r,g,G
  /// (ns, ns, ns, ns, ns/byte) or the measured Niagara defaults.  The
  /// defaults keep existing figure fingerprints byte-identical.
  model::LogGPParams model_params() const {
    return loggp_set_ ? loggp_ : model::LogGPParams::niagara_mpi_measured();
  }

  /// Initial timer window for δ-based designs: --delta0=NS or `fallback`
  /// (the drivers' historical hard-coded value, typically msec(4)).
  Duration initial_delta(Duration fallback = msec(4)) const {
    return delta0_ > 0 ? delta0_ : fallback;
  }

  /// Runner options wired from the command line: --jobs=N worker threads
  /// (default runner::default_jobs(); 1 reproduces serial behaviour
  /// exactly).
  runner::RunOptions run_options() const {
    runner::RunOptions o;
    o.jobs = jobs_;
    return o;
  }

  void emit(const Table& table) const {
    if (csv_) {
      std::cout << table.to_csv();
    } else {
      table.print(std::cout);
    }
  }

 private:
  // std::from_chars, not atoi: reject garbage and non-positive values
  // loudly instead of silently running 0 iterations / 0 workers.
  static int parse_positive(const char* value, const char* flag) {
    const char* end = value + std::strlen(value);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ec != std::errc{} || ptr != end || parsed <= 0) {
      std::cerr << "bench: invalid " << flag << " value \"" << value
                << "\" (expected a positive integer)\n";
      std::exit(2);
    }
    return parsed;
  }

  void parse_loggp(const char* value) {
    model::LogGPParams p{};
    char* next = nullptr;
    const char* cursor = value;
    Duration* ints[4] = {&p.L, &p.o_s, &p.o_r, &p.g};
    for (Duration* field : ints) {
      *field = static_cast<Duration>(std::strtoll(cursor, &next, 10));
      if (next == cursor || *next != ',') bad_loggp(value);
      cursor = next + 1;
    }
    p.G = std::strtod(cursor, &next);
    if (next == cursor || *next != '\0') bad_loggp(value);
    loggp_ = p;
    loggp_set_ = true;
  }

  [[noreturn]] static void bad_loggp(const char* value) {
    std::cerr << "bench: invalid --loggp value \"" << value
              << "\" (expected L,o_s,o_r,g,G — four ns integers and a "
                 "ns/byte double)\n";
    std::exit(2);
  }

  bool csv_ = false;
  int iters_override_ = 0;
  std::size_t jobs_ = 0;  ///< 0 = runner default
  model::LogGPParams loggp_{};
  bool loggp_set_ = false;
  Duration delta0_ = 0;  ///< 0 = use the driver's fallback
};

inline part::Options options_with(
    std::shared_ptr<const agg::Aggregator> a) {
  part::Options o;
  o.aggregator = std::move(a);
  return o;
}

inline part::Options persistent_options() {
  return options_with(std::make_shared<agg::PersistentBaseline>());
}

inline part::Options static_options(std::size_t tp, int qps) {
  return options_with(std::make_shared<agg::StaticAggregator>(tp, qps));
}

inline part::Options ploggp_options(
    const model::LogGPParams& params =
        model::LogGPParams::niagara_mpi_measured()) {
  return options_with(std::make_shared<agg::PLogGPAggregator>(params));
}

inline part::Options timer_options(
    Duration delta, const model::LogGPParams& params =
                        model::LogGPParams::niagara_mpi_measured()) {
  return options_with(
      std::make_shared<agg::TimerPLogGPAggregator>(params, delta));
}

inline part::Options tuning_table_options() {
  return options_with(std::make_shared<agg::TuningTableAggregator>(
      agg::TuningTable::niagara_prebuilt()));
}

inline part::Options learning_options(
    const model::LogGPParams& params, Duration delta0 = msec(4),
    model::ArrivalLearnConfig cfg = {}) {
  return options_with(std::make_shared<agg::ArrivalLearningAggregator>(
      params, delta0, cfg));
}

/// The zoo's oracle arm: a learning channel whose profile the harness
/// re-seeds with ground truth each epoch, planning greedily on it
/// (alpha = 1 — trust the seed fully; epsilon = 0 — no hysteresis).
inline part::Options oracle_options(const model::LogGPParams& params,
                                    Duration delta0 = msec(4)) {
  model::ArrivalLearnConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.hysteresis_epsilon = 0.0;
  return learning_options(params, delta0, cfg);
}

}  // namespace partib::bench

// Trial schema: the field list beside each config and result struct
// (common/fields.hpp) is the only source of the trial fingerprints and the
// result codecs.  Pins what those lists must keep bit-identical, checks that
// every listed leaf enters the hash and every member is listed, and holds
// the fields that once shared a fingerprint to distinct ones.  The last
// section holds each trial body run over a caller's backend to the same
// trial run through its `(cfg)` form.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "agg/strategies.hpp"
#include "backend/backend.hpp"
#include "backend/des_backend.hpp"
#include "bench/trial.hpp"
#include "bench/trial_world.hpp"
#include "common/fields.hpp"
#include "common/units.hpp"

namespace partib::bench {
namespace {

constexpr auto kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr auto kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

// -- pins --------------------------------------------------------------------

TEST(TrialSchema, DefaultFingerprintsStayBitIdentical) {
  // Zoo's and connscale's `seed == 0` trials seed from these, so the
  // values and their schema tags are frozen: a change re-seeds those
  // trials and moves ZooSmokeCsvPinned.
  EXPECT_EQ(fingerprint(OverheadConfig{}), 0x8dcfe1f553c6825bULL);
  EXPECT_EQ(fingerprint(PerceivedConfig{}), 0xfeb7296bf4e0f190ULL);
  EXPECT_EQ(fingerprint(SweepConfig{}), 0x68f9671821f90371ULL);
  EXPECT_EQ(fingerprint(HaloConfig{}), 0x98c472ae53976274ULL);
  EXPECT_EQ(fingerprint(ConnScaleConfig{}), 0xbd7296dc4d89efffULL);
  EXPECT_EQ(fingerprint(ZooConfig{}), 0x541749c66212f0d3ULL);
  EXPECT_EQ(fabric::FaultPlanConfig{}.fingerprint(), 0x68c034d37694c5e4ULL);
}

TEST(TrialSchema, EncodingsStayByteIdentical) {
  EXPECT_EQ(overhead_codec().encode({384344, 370001, 412345, 640, 5120}),
            "384344 370001 412345 640 5120");
  EXPECT_EQ(perceived_codec().encode({11.25, 0.1, 1e300, -0.0, 3.0 / 7}),
            "0x1.68p+3 0x1.999999999999ap-4 0x1.7e43c8800759cp+996 -0x0p+0 "
            "0x1.b6db6db6db6dbp-2");
  EXPECT_EQ(sweep_codec().encode({123456789, 100000000, 23456789}),
            "123456789 100000000 23456789");
  EXPECT_EQ(halo_codec().encode({kI64Min, 0, kI64Max}),
            "-9223372036854775808 0 9223372036854775807");
  EXPECT_EQ(
      connscale_codec().encode({384344, 4097, 2, 1, kU64Max, 4096, 4096, 17}),
      "384344 4097 2 1 18446744073709551615 4096 4096 17");
  EXPECT_EQ(zoo_codec().encode(
                {9.5, 8.25, {1.0 / 3, kDenormal, 12.0}, 17, 4.5, 33.75, 9}),
            "0x1.3p+3 0x1.08p+3 0x1.5555555555555p-2 0x0.0000000000001p-1022 "
            "0x1.8p+3 17 0x1.2p+2 0x1.0ep+5 9");
}

// -- every leaf enters the hash ----------------------------------------------

/// Perturbs the `target`-th leaf of a field list; with an out-of-range
/// target it only counts leaves.  Strategy pointers are not leaves here:
/// the aggregator is swapped explicitly (AggregatorHashesAsItsDescription).
struct PerturbLeaf {
  std::size_t target;
  std::size_t seen = 0;

  template <typename... Fields>
  void operator()(Fields&&... fields) {
    (leaf(fields), ...);
  }

  template <typename T>
  void leaf(Defaulted<T>& f) {
    leaf(f.value);
  }

  template <typename T>
  void leaf(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      if (seen++ == target) v = !v;
    } else if constexpr (std::is_enum_v<T>) {
      if (seen++ == target) {
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      if (seen++ == target) ++v;
    } else if constexpr (!requires { v->describe(); }) {
      visit_fields(*this, v);
    }
  }
};

template <typename Config, typename Fingerprint>
void expect_every_leaf_hashed(Config base, Fingerprint fp) {
  PerturbLeaf count{std::numeric_limits<std::size_t>::max()};
  visit_fields(count, base);
  ASSERT_GT(count.seen, 0u);
  // Every single-leaf perturbation gets a key of its own: distinct from
  // the base and from every other leaf's.
  std::set<std::uint64_t> keys{fp(base)};
  for (std::size_t k = 0; k < count.seen; ++k) {
    Config c = base;
    visit_fields(PerturbLeaf{k}, c);
    EXPECT_TRUE(keys.insert(fp(c)).second) << "leaf " << k;
  }
}

TEST(TrialSchema, EveryLeafEntersTheHash) {
  auto bench_fp = [](const auto& c) { return fingerprint(c); };
  expect_every_leaf_hashed(OverheadConfig{}, bench_fp);
  expect_every_leaf_hashed(PerceivedConfig{}, bench_fp);
  expect_every_leaf_hashed(SweepConfig{}, bench_fp);
  expect_every_leaf_hashed(HaloConfig{}, bench_fp);
  expect_every_leaf_hashed(ConnScaleConfig{}, bench_fp);
  expect_every_leaf_hashed(ZooConfig{}, bench_fp);
  expect_every_leaf_hashed(fabric::FaultPlanConfig{},
                           [](const auto& c) { return c.fingerprint(); });
}

TEST(TrialSchema, AggregatorHashesAsItsDescription) {
  auto with = [](std::shared_ptr<const agg::Aggregator> a) {
    OverheadConfig c;
    c.options.aggregator = std::move(a);
    return fingerprint(c);
  };
  const std::set<std::uint64_t> keys{
      with(nullptr),
      with(std::make_shared<agg::PersistentBaseline>()),
      with(std::make_shared<agg::StaticAggregator>(4, 1)),
      with(std::make_shared<agg::StaticAggregator>(8, 1)),
      with(std::make_shared<agg::StaticAggregator>(4, 2)),
  };
  EXPECT_EQ(keys.size(), 5u);
  // Identity is the description, not the object.
  EXPECT_EQ(with(std::make_shared<agg::StaticAggregator>(4, 1)),
            with(std::make_shared<agg::StaticAggregator>(4, 1)));
}

// -- every member is listed --------------------------------------------------

/// Converts to any member type; used only unevaluated, to count an
/// aggregate's members by how many initializers it accepts.  An array
/// member takes one initializer per element (brace elision).
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <typename T, typename... Probe>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Probe{}..., AnyMember{}}; }) {
    return member_count<T, Probe..., AnyMember>();
  } else {
    return sizeof...(Probe);
  }
}

/// Top-level entries of a field list, arrays counted per element.
struct CountEntries {
  std::size_t n = 0;

  template <typename... Fields>
  void operator()(Fields&&... fields) {
    (add(fields), ...);
  }

  template <typename T>
  void add(const T&) {
    n += std::is_array_v<T> ? std::extent_v<T> : 1;
  }
};

template <typename T>
std::size_t listed_count() {
  T obj{};
  CountEntries c;
  visit_fields(c, obj);
  return c.n;
}

template <typename T>
void expect_listed() {
  EXPECT_EQ(listed_count<T>(), member_count<T>()) << typeid(T).name();
}

template <typename... Ts>
void expect_all_listed() {
  (expect_listed<Ts>(), ...);
}

TEST(TrialSchema, EveryMemberIsListed) {
  expect_all_listed<model::LogGPParams, fabric::NicParams,
                    fabric::FaultPlanConfig, mpi::WorldOptions, part::UcxModel,
                    part::Options, OverheadConfig, SweepConfig, HaloConfig,
                    ConnScaleConfig, ZooConfig, OverheadResult,
                    PerceivedResult, SweepResult, HaloResult, ConnScaleResult,
                    ZooResult>();
  // The profiler observes a trial rather than shaping it: deliberately
  // unlisted, so it moves neither the fingerprint nor a derived seed.
  EXPECT_EQ(listed_count<PerceivedConfig>() + 1,
            member_count<PerceivedConfig>());
}

/// Every leaf's bit pattern, in list order.
struct LeafBits {
  std::vector<std::uint64_t> bits;

  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (add(fields), ...);
  }

  template <typename T>
  void add(const T& v) {
    if constexpr (std::is_array_v<T>) {
      for (const auto& e : v) add(e);
    } else if constexpr (std::is_floating_point_v<T>) {
      bits.push_back(std::bit_cast<std::uint64_t>(v));
    } else {
      bits.push_back(static_cast<std::uint64_t>(v));
    }
  }
};

template <typename Result>
std::vector<std::uint64_t> leaf_bits(const Result& r) {
  LeafBits b;
  visit_fields(b, r);
  return b.bits;
}

// -- encode is injective on edge values --------------------------------------

/// Sets leaf `target` (list order) to one side of edge pair `pair` of its
/// type: doubles have -0.0/0.0, denorm_min/0 and +inf/-inf, signed
/// integers min/max, unsigned integers max/0.  `applied` is false when
/// the leaf's type has no pair `pair`.
struct SetEdge {
  std::size_t target;
  int pair;
  bool first;
  std::size_t at = 0;
  bool applied = false;

  template <typename... Fields>
  void operator()(Fields&... fields) {
    (set(fields), ...);
  }

  template <typename T>
  void set(T& v) {
    if constexpr (std::is_array_v<T>) {
      for (auto& e : v) set(e);
    } else if (at++ == target) {
      using L = std::numeric_limits<T>;
      if constexpr (std::is_floating_point_v<T>) {
        const T pairs[3][2] = {{T(-0.0), T(0.0)},
                               {L::denorm_min(), T(0.0)},
                               {L::infinity(), -L::infinity()}};
        v = pairs[pair][first ? 0 : 1];
        applied = true;
      } else if (pair == 0) {
        if constexpr (std::is_signed_v<T>) {
          v = first ? L::min() : L::max();
        } else {
          v = first ? L::max() : T{0};
        }
        applied = true;
      }
    }
  }
};

template <typename Result>
void expect_injective_on_edges(const runner::Codec<Result>& codec) {
  const std::size_t leaves = leaf_bits(Result{}).size();
  for (std::size_t k = 0; k < leaves; ++k) {
    for (int pair = 0; pair < 3; ++pair) {
      Result a{};
      Result b{};
      SetEdge to_a{k, pair, true};
      SetEdge to_b{k, pair, false};
      visit_fields(to_a, a);
      visit_fields(to_b, b);
      if (!to_a.applied) continue;
      EXPECT_NE(codec.encode(a), codec.encode(b))
          << typeid(Result).name() << " leaf " << k << " pair " << pair;
    }
  }
}

TEST(TrialSchema, EncodeIsInjectiveOnEdgeValues) {
  expect_injective_on_edges(overhead_codec());
  expect_injective_on_edges(perceived_codec());
  expect_injective_on_edges(sweep_codec());
  expect_injective_on_edges(halo_codec());
  expect_injective_on_edges(connscale_codec());
  expect_injective_on_edges(zoo_codec());
}

// -- fields the hash once skipped no longer alias ----------------------------

OverheadConfig fault_free() {
  OverheadConfig c;
  c.total_bytes = 4 * MiB;
  c.user_partitions = 32;
  c.iterations = 20;
  c.options = part::Options::defaults();
  return c;
}

OverheadConfig dropping() {
  OverheadConfig c = fault_free();
  c.world.faults.drop_rate = 0.3;
  return c;
}

TEST(TrialSchema, FaultPlansGetDistinctFingerprints) {
  OverheadConfig delayed = fault_free();
  delayed.world.faults.delay_rate = 0.5;
  const std::set<std::uint64_t> keys{fingerprint(fault_free()),
                                     fingerprint(delayed),
                                     fingerprint(dropping())};
  EXPECT_EQ(keys.size(), 3u);
}

TEST(TrialSchema, ConnectionLimitsAndRetryBudgetEnterTheKey) {
  OverheadConfig impatient;
  impatient.options.max_send_retries = 1;
  EXPECT_NE(fingerprint(impatient), fingerprint(OverheadConfig{}));

  // Elided fields are name-tagged: one value in two such fields differs.
  OverheadConfig backing_off;
  backing_off.options.retry_backoff = 1;
  EXPECT_NE(fingerprint(backing_off), fingerprint(impatient));
}

TEST(TrialSchema, FaultedGridRowIsTheFaultedTrial) {
  EXPECT_NE(fingerprint(fault_free()), fingerprint(dropping()));
  runner::RunOptions opts;
  opts.jobs = 1;
  const auto got = run_overhead_grid({dropping()}, opts);
  ASSERT_EQ(got.size(), 1u);
  const auto codec = overhead_codec();
  EXPECT_EQ(codec.encode(got[0]), codec.encode(run_overhead(dropping())));
}

// -- the (backend, cfg) trial forms ------------------------------------------

/// Runs a trial body over a caller-built DES backend: the result must
/// equal the `(cfg)` form's bit for bit, and the caller sees the engine's
/// work.
template <typename Config, typename Result>
void expect_backend_form_matches(
    const Config& cfg, Result (*run)(backend::Backend&, const Config&),
    Result (*run_on_des)(const Config&)) {
  backend::DesBackend be(
      mpi::backend_config(trial_world(cfg.world, /*ranks=*/1)));
  const Result got = run(be, cfg);
  EXPECT_EQ(leaf_bits(got), leaf_bits(run_on_des(cfg)))
      << runner::fields_codec<Result>().encode(got);
  EXPECT_GT(be.engine().processed_count(), 0u);
}

OverheadConfig small_overhead() {
  OverheadConfig c;
  c.total_bytes = 64 * KiB;
  c.user_partitions = 8;
  c.options = part::Options::defaults();
  c.iterations = 3;
  c.warmup = 1;
  return c;
}

TEST(TrialForms, BackendFormsMatchConfigForms) {
  expect_backend_form_matches(small_overhead(), run_overhead, run_overhead);

  PerceivedConfig perceived;
  perceived.total_bytes = 256 * KiB;
  perceived.user_partitions = 8;
  perceived.options = part::Options::defaults();
  perceived.compute = usec(200);
  perceived.iterations = 2;
  perceived.warmup = 1;
  expect_backend_form_matches(perceived, run_perceived_bandwidth,
                              run_perceived_bandwidth);

  SweepConfig sweep;
  sweep.px = 2;
  sweep.py = 2;
  sweep.threads = 4;
  sweep.message_bytes = 64 * KiB;
  sweep.options = part::Options::defaults();
  sweep.compute = usec(100);
  sweep.iterations = 2;
  sweep.warmup = 1;
  expect_backend_form_matches(sweep, run_sweep, run_sweep);

  HaloConfig halo;
  halo.px = 2;
  halo.py = 2;
  halo.threads = 4;
  halo.face_bytes = 64 * KiB;
  halo.options = part::Options::defaults();
  halo.compute = usec(100);
  halo.iterations = 2;
  halo.warmup = 1;
  expect_backend_form_matches(halo, run_halo, run_halo);

  ConnScaleConfig connscale;
  connscale.peers = 3;
  connscale.options = part::Options::defaults();
  expect_backend_form_matches(connscale, run_connscale, run_connscale);

  ZooConfig zoo;
  zoo.shape = ZooShape::kRandomPerm;
  zoo.seed = 7;
  zoo.total_bytes = 1 * MiB;
  zoo.user_partitions = 16;
  zoo.options = part::Options::defaults();
  zoo.spread = usec(500);
  zoo.epochs = 4;
  zoo.warmup = 1;
  expect_backend_form_matches(zoo, run_zoo, run_zoo);
}

TEST(TrialForms, NicRateReachesTheBackend) {
  // cfg.world.nic must reach the fabric the trial runs on: at half the
  // link rate every round moves the same bytes more slowly.
  OverheadConfig fast = small_overhead();
  fast.total_bytes = 4 * MiB;
  OverheadConfig slow = fast;
  slow.world.nic.wire.G *= 2.0;
  EXPECT_GT(overhead_trial(slow).mean_round, overhead_trial(fast).mean_round);
}

TEST(TrialForms, OverheadRunsOverTheShmBackend) {
  // With a static aggregator the WR count is fixed by the plan, not by
  // timing, so the real-time run must post exactly what the DES run does.
  OverheadConfig cfg = small_overhead();
  cfg.options.aggregator = std::make_shared<agg::StaticAggregator>(4, 1);
  cfg.iterations = 2;
  backend::Config quiet;
  quiet.copy_data = false;
  const auto shm = backend::make_backend("shm", quiet);
  ASSERT_NE(shm, nullptr);
  const OverheadResult rt = run_overhead(*shm, cfg);
  EXPECT_GT(rt.mean_round, 0);
  EXPECT_EQ(rt.wrs_posted, run_overhead(cfg).wrs_posted);
  EXPECT_EQ(rt.wrs_posted, 4u * 2u);
}

}  // namespace
}  // namespace partib::bench

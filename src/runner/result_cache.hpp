// Content-addressed persistent cache for completed trial results.
//
// A trial's full configuration hashes to a 64-bit fingerprint
// (runner/fingerprint.hpp); the cache maps that fingerprint to the
// trial's serialized result on disk, one file per trial:
//
//     <dir>/<16-hex-digit fingerprint>.trial
//
// so re-running a figure benchmark or rebuilding the tuning table skips
// every trial whose exact configuration has already been simulated — by
// any earlier invocation of any binary.  Invalidation is structural: the
// fingerprint walks the config's field list (common/fields.hpp) behind a
// schema tag (src/bench/trial.cpp), and decode rejects a payload that no
// longer matches the result's list.  Results produced by *code* changes
// that alter simulated timelines without touching any config field must
// be invalidated by bumping the trial schema tag (or deleting the cache
// directory — always safe).
//
// Writes go through a per-process temp file renamed into place, so
// concurrent writers (pool workers, or two processes sweeping
// overlapping grids) never expose a torn file.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace partib::runner {

class ResultCache {
 public:
  /// Opens (creating if needed) the cache rooted at `dir`.
  explicit ResultCache(std::string dir);

  /// Cache honouring the environment knobs: PARTIB_CACHE=off disables
  /// caching entirely (returns nullptr), PARTIB_CACHE_DIR overrides the
  /// default `.partib-cache` (relative to the current directory).
  static std::unique_ptr<ResultCache> open_default();

  /// The payload stored for `fingerprint`, or nullopt on miss (also on a
  /// torn/foreign file, which is treated as a miss and re-computed).
  std::optional<std::string> load(std::uint64_t fingerprint) const;

  /// Persist `payload` under `fingerprint`.  Best-effort: an unwritable
  /// cache directory degrades to cache-off behaviour rather than failing
  /// the sweep.
  void store(std::uint64_t fingerprint, std::string_view payload) const;

  const std::string& dir() const { return dir_; }

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }

 private:
  std::string path_for(std::uint64_t fingerprint) const;

  std::string dir_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace partib::runner

#include "common/env.hpp"

#include <cstdlib>
#include <cstring>

#include "common/assert.hpp"
#include "common/mutex.hpp"

namespace partib {

namespace {

// getenv() returns a pointer into the environment block; a concurrent
// setenv/putenv (tests re-point PARTIB_* knobs between trials) can
// invalidate it mid-copy.  Serializing the lookup *and* the copy-out
// through one lock class makes every env read in the library a single
// critical section — the threaded host runtime inherits this for free.
// Values are deliberately NOT memoized: tests flip knobs with setenv and
// expect the next read to see the new value.
common::Mutex g_env_mu("common.env");

}  // namespace

std::optional<std::string> env_string(const char* name) {
  common::MutexLock lock(g_env_mu);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): serialized under g_env_mu; see above.
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  PARTIB_ASSERT_MSG(end != nullptr && *end == '\0',
                    "non-numeric value in integer environment variable");
  return parsed;
}

}  // namespace partib

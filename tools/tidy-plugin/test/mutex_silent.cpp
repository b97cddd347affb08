// Fixture: partib-mutex-wrapper-only stays silent on the wrapper types
// and on justified, suppressed raw-mutex uses.  Linted as
// src/runner/mutex_silent.cpp.

// SILENT-NOT: warning:

struct Shard {
  common::Mutex mu{"runtime.shard"};
};

void locked_section(Shard& shard) {
  common::MutexLock lock(shard.mu);
}

// A deliberately-raw mutex (e.g. inside an auditor that must not audit
// itself) carries an inline justification and a suppression:
// NOLINTNEXTLINE(partib-mutex-wrapper-only)
std::mutex g_shadow_mu;

// NOLINTBEGIN(partib-mutex-wrapper-only)
std::mutex g_region_a;
std::mutex g_region_b;
// NOLINTEND(partib-mutex-wrapper-only)

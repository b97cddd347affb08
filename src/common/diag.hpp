// Structured diagnostics.
//
// Every abnormal condition the library reports — checker rule violations
// (src/check), PARTIB_ASSERT failures, CQ overruns — is funnelled through
// one emitter so test logs are uniformly greppable:
//
//   partib: diagnostic: rule=<id> object=<o> time=<t> rank=<r> <detail> [file:line]
//
// `rule` is a stable identifier (see check/rules.hpp for the registry);
// `time` is the simulation's virtual time when one is known (-1 otherwise,
// printed as "-"); `rank` likewise.  Fatal diagnostics abort after
// printing; non-fatal ones go to the leveled log at warn level *and* are
// observable through the checker's violation sink.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace partib {

struct Diagnostic {
  const char* rule = "unknown";  ///< stable rule id (registry key)
  const char* object = "";       ///< subject, e.g. "qp#102" (may be empty)
  Time vtime = -1;               ///< virtual time, -1 when unknown
  int rank = -1;                 ///< MPI rank, -1 when unknown
  const char* detail = "";       ///< human-readable explanation
  const char* file = nullptr;    ///< origin source location (optional)
  int line = 0;
};

/// Print one structured diagnostic line to stderr (always — diagnostics
/// indicate program errors, so nothing gates them).
void diag_emit(const Diagnostic& d);

/// Fatal variant: emit and abort.  PARTIB_ASSERT routes through this with
/// rule id "assert" so assertion failures and checker violations share one
/// log grammar.
[[noreturn]] void diag_fail(const Diagnostic& d);

namespace detail {
/// Backing store for diag_set_time/diag_time (-1 before any dispatch).
/// thread_local: the parallel experiment runner (src/runner) drives one
/// independent engine per worker thread, and each simulation's
/// diagnostics must carry *its own* clock — a shared global here would
/// be both a data race and the wrong timestamp.
inline thread_local Time g_diag_vtime = -1;
}  // namespace detail

/// The simulation engine publishes its clock here on every event dispatch
/// so diagnostics raised from within callbacks carry virtual time even
/// when the reporting site has no engine reference.  Multiple engines on
/// one thread: last dispatch wins, which is the right answer for the
/// single-engine-per-simulation norm.  Inline: this sits on the engine's
/// per-dispatch hot path, where an out-of-line call would be measurable.
inline void diag_set_time(Time t) { detail::g_diag_vtime = t; }

/// Last published virtual time (-1 before any dispatch).
inline Time diag_time() { return detail::g_diag_vtime; }

}  // namespace partib

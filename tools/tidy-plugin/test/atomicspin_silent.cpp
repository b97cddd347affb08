// Fixture: partib-no-raw-atomic-spin stays silent on non-loop atomic
// uses, atomics read in loop bodies, the shard hand-off API itself, and
// justified, suppressed spins.  Linted as src/part/atomicspin_silent.cpp.

// SILENT-NOT: warning:

std::atomic<bool> progress_scheduled_{false};
std::atomic<unsigned long> counters_[8];

// Straight-line coalescing exchange (the psend/precv idiom): not a
// loop condition, not a spin.
void schedule_progress() {
  if (progress_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
}

// Atomic reads in a loop *body* are fine — the loop is bounded by the
// induction variable, nobody is waiting on the flag.
unsigned long sum_counters() {
  unsigned long total = 0;
  for (int i = 0; i < 8; ++i) {
    total += counters_[i].load(std::memory_order_relaxed);
  }
  return total;
}

// The sanctioned path: claim through the engine, hand off, no waiting.
void produce(partib::runtime::ProducerHandle& h, std::size_t channel,
             std::size_t first, std::size_t last) {
  for (std::size_t p = first; p <= last; ++p) {
    h.pready(channel, p);
  }
  h.flush();
}

// A deliberate spin (e.g. a test-only barrier) carries an inline
// justification and a suppression:
void test_only_barrier(std::atomic<int>& arrived, int n) {
  // NOLINTNEXTLINE(partib-no-raw-atomic-spin)
  while (arrived.load(std::memory_order_acquire) < n) {
  }
}

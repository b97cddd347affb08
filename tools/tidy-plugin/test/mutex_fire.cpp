// Fixture: partib-mutex-wrapper-only fires on raw std synchronisation
// types outside src/common/.  Linted as src/runner/mutex_fire.cpp.

// CHECK: src/runner/mutex_fire.cpp:[[@LINE+2]]:3: warning: raw 'std::mutex' outside src/common/; use common::Mutex (common/mutex.hpp) so thread-safety annotations and the lock-order auditor see it [partib-mutex-wrapper-only]
struct Queue {
  std::mutex mu;
  int depth = 0;
};

// CHECK: src/runner/mutex_fire.cpp:[[@LINE+1]]:1: warning: raw 'std::condition_variable' outside src/common/; use common::Mutex (common/mutex.hpp) so thread-safety annotations and the lock-order auditor see it [partib-mutex-wrapper-only]
std::condition_variable g_cv;

// CHECK: src/runner/mutex_fire.cpp:[[@LINE+1]]:1: warning: raw 'std::shared_mutex' outside src/common/; use common::Mutex (common/mutex.hpp) so thread-safety annotations and the lock-order auditor see it [partib-mutex-wrapper-only]
std::shared_mutex g_table_mu;

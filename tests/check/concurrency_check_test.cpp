// The dynamic concurrency auditors (src/check/concurrency_check.*):
// lock-order cycle detection over lock classes and cross-thread ownership
// of DES-domain objects.
#include <gtest/gtest.h>

#include <thread>

#include "check/check.hpp"
#include "check/concurrency_check.hpp"
#include "common/mutex.hpp"

// Several tests below *deliberately* acquire locks in inverted order — the
// auditor under test is the oracle that must catch it.  TSan's own
// deadlock detector (rightly) flags those same injected inversions, so it
// is switched off for this binary; data-race detection stays on.  A no-op
// when TSan is not linked.
extern "C" const char* __tsan_default_options() {
  return "detect_deadlocks=0";
}

namespace partib::check {
namespace {

class ConcurrencyCheckTest : public ::testing::Test {
 protected:
  // check::reset() clears the order graph, ownership map and counters so
  // tests cannot see each other's edges.
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

// -- lock-order auditor ------------------------------------------------------

TEST_F(ConcurrencyCheckTest, InjectedInversionIsReportedExactlyOnce) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  ScopedLockAudit audit;
  common::Mutex a("test.A");
  common::Mutex b("test.B");

  {
    common::MutexLock la(a);
    common::MutexLock lb(b);  // records A → B
  }
  EXPECT_EQ(lock_order_reports(), 0u) << "consistent order must be silent";

  {
    common::MutexLock lb(b);
    common::MutexLock la(a);  // B → A closes the cycle
  }
  EXPECT_EQ(lock_order_reports(), 1u);

  // The same inversion again is deduplicated: one report per ordered pair.
  {
    common::MutexLock lb(b);
    common::MutexLock la(a);
  }
  EXPECT_EQ(lock_order_reports(), 1u);
}

TEST_F(ConcurrencyCheckTest, ConsistentOrderAcrossThreadsIsSilent) {
  ScopedLockAudit audit;
  common::Mutex a("test.A");
  common::Mutex b("test.B");
  auto locker = [&a, &b] {
    for (int i = 0; i < 100; ++i) {
      common::MutexLock la(a);
      common::MutexLock lb(b);
    }
  };
  std::thread t1(locker);
  std::thread t2(locker);
  t1.join();
  t2.join();
  EXPECT_EQ(lock_order_reports(), 0u);
}

TEST_F(ConcurrencyCheckTest, InversionIsDetectedAcrossInstancesOfAClass) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  // The graph is over lock *classes* (Mutex names): an inversion between
  // two different instances of the same named class is still an inversion
  // — the runs never touch the same object, only the same classes.
  ScopedLockAudit audit;
  common::Mutex shard1("test.shard");
  common::Mutex shard2("test.shard");
  common::Mutex table("test.table");

  {
    common::MutexLock ls(shard1);
    common::MutexLock lt(table);  // shard → table
  }
  {
    common::MutexLock lt(table);
    common::MutexLock ls(shard2);  // table → shard: cycle via the class
  }
  EXPECT_GE(lock_order_reports(), 1u);
}

TEST_F(ConcurrencyCheckTest, SameClassNestingReports) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  // Nesting two locks of one class deadlocks unless every thread orders
  // instances identically, which nothing enforces — so it reports.
  ScopedLockAudit audit;
  common::Mutex m1("test.same");
  common::Mutex m2("test.same");
  {
    common::MutexLock l1(m1);
    common::MutexLock l2(m2);
  }
  EXPECT_EQ(lock_order_reports(), 1u);
}

TEST_F(ConcurrencyCheckTest, HeldLockCountTracksNesting) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  ScopedLockAudit audit;
  common::Mutex a("test.A");
  common::Mutex b("test.B");
  EXPECT_EQ(held_lock_count(), 0u);
  {
    common::MutexLock la(a);
    EXPECT_EQ(held_lock_count(), 1u);
    {
      common::MutexLock lb(b);
      EXPECT_EQ(held_lock_count(), 2u);
    }
    EXPECT_EQ(held_lock_count(), 1u);
  }
  EXPECT_EQ(held_lock_count(), 0u);
}

TEST_F(ConcurrencyCheckTest, DisabledAuditObservesNothing) {
  common::Mutex a("test.A");
  common::Mutex b("test.B");
  {
    common::MutexLock la(a);
    common::MutexLock lb(b);
  }
  {
    common::MutexLock lb(b);
    common::MutexLock la(a);
  }
  EXPECT_EQ(lock_order_reports(), 0u);
}

// -- cross-thread ownership auditor ------------------------------------------

TEST_F(ConcurrencyCheckTest, ForeignUnsynchronizedTouchReports) {
  ScopedOwnerAudit audit;
  int object = 0;
  on_owned_access(&object, "qp");  // this thread claims ownership
  EXPECT_EQ(cross_thread_reports(), 0u);

  std::thread other([&object] { on_owned_access(&object, "qp"); });
  other.join();
  EXPECT_EQ(cross_thread_reports(), 1u);
}

TEST_F(ConcurrencyCheckTest, OwnerRetouchIsSilent) {
  ScopedOwnerAudit audit;
  int object = 0;
  for (int i = 0; i < 10; ++i) on_owned_access(&object, "cq");
  EXPECT_EQ(cross_thread_reports(), 0u);
}

TEST_F(ConcurrencyCheckTest, ForeignTouchUnderAuditedLockIsSilent) {
  if (!hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  // Holding any partib Mutex at the access counts as synchronized — the
  // sharded-progress design takes a shard lock before crossing domains.
  ScopedOwnerAudit audit;
  common::Mutex shard("test.shard");
  int object = 0;
  on_owned_access(&object, "psend");

  std::thread other([&shard, &object] {
    common::MutexLock lock(shard);
    on_owned_access(&object, "psend");
  });
  other.join();
  EXPECT_EQ(cross_thread_reports(), 0u);
}

TEST_F(ConcurrencyCheckTest, RebindHandoffIsSilent) {
  ScopedOwnerAudit audit;
  int object = 0;
  on_owned_access(&object, "precv");

  std::thread other([&object] {
    rebind_owner(&object);  // explicit handoff to this thread
    on_owned_access(&object, "precv");
  });
  other.join();
  EXPECT_EQ(cross_thread_reports(), 0u);
}

TEST_F(ConcurrencyCheckTest, ForgetAllowsAddressReuse) {
  ScopedOwnerAudit audit;
  int object = 0;
  on_owned_access(&object, "qp");
  forget_owned(&object);  // object "destroyed"

  std::thread other([&object] {
    on_owned_access(&object, "qp");  // fresh claim at the reused address
  });
  other.join();
  EXPECT_EQ(cross_thread_reports(), 0u);
}

}  // namespace
}  // namespace partib::check

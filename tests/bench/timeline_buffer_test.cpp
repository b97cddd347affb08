// TimelineBuffer, the trial forms' payload store: a reservation that
// commits no page, faults on any access, and is released exactly once
// however often it is moved.
#include "bench/timeline_buffer.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace partib::bench {
namespace {

std::size_t page_bytes() {
  return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// True when every page of [p, p + bytes) is mapped (resident or not).
bool mapped(const std::byte* p, std::size_t bytes) {
  std::vector<unsigned char> vec((bytes + page_bytes() - 1) / page_bytes());
  return ::mincore(const_cast<std::byte*>(p), bytes, vec.data()) == 0;
}

TEST(TimelineBuffer, ReservesWithoutCommittingAPage) {
  const TimelineBuffer buf(256 * MiB);
  const std::span<std::byte> s = buf.span();
  ASSERT_EQ(s.size(), 256 * MiB);
  ASSERT_NE(s.data(), nullptr);
  std::vector<unsigned char> vec(s.size() / page_bytes());
  ASSERT_EQ(::mincore(s.data(), s.size(), vec.data()), 0);
  std::size_t resident = 0;
  for (unsigned char v : vec) resident += v & 1u;
  EXPECT_EQ(resident, 0u);
}

TEST(TimelineBuffer, AnyAccessFaults) {
  const TimelineBuffer buf(64 * KiB);
  volatile std::byte* p = buf.span().data();
  EXPECT_DEATH(p[0] = std::byte{1}, "");
  EXPECT_DEATH(
      {
        const std::byte last = p[64 * KiB - 1];
        (void)last;
      },
      "");
}

TEST(TimelineBuffer, MoveTransfersOwnershipOnce) {
  TimelineBuffer a(1 * MiB);
  std::byte* const p = a.span().data();
  {
    const TimelineBuffer b(std::move(a));
    // The moved-from object holds nothing, so it can release nothing.
    EXPECT_TRUE(a.span().empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.span().data(), p);
    EXPECT_EQ(b.span().size(), 1 * MiB);
    EXPECT_TRUE(mapped(p, 1 * MiB));
  }
  // The new owner released the reservation when it went out of scope.
  EXPECT_FALSE(mapped(p, 1 * MiB));
}

}  // namespace
}  // namespace partib::bench

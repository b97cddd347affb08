// The payload store of every trial form: reserved address space, never
// provisioned memory.
//
// Trial forms run their world with copy_data=false, so the simulated
// fabric charges wire time for payload bytes but never reads or writes
// them; only the timeline is measured.  A TimelineBuffer reserves `bytes`
// as one PROT_NONE, MAP_NORESERVE anonymous mapping: MRs register over it
// and partitions slice it like any other buffer, yet no page is ever
// committed, and any stray read or write faults at once.  "These bytes
// are never touched" is thereby enforced on every run instead of assumed
// (docs/PERF.md, "Trial buffer provisioning").
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace partib::bench {

class TimelineBuffer {
 public:
  explicit TimelineBuffer(std::size_t bytes) : bytes_(bytes) {
    PARTIB_ASSERT(bytes > 0);
    void* p = ::mmap(nullptr, bytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    PARTIB_ASSERT(p != MAP_FAILED);
    data_ = static_cast<std::byte*>(p);
  }
  ~TimelineBuffer() {
    if (data_ != nullptr) ::munmap(data_, bytes_);
  }

  /// Move-only: the moved-from object is left empty and releases nothing.
  TimelineBuffer(TimelineBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  TimelineBuffer& operator=(TimelineBuffer&&) = delete;

  std::span<std::byte> span() const { return {data_, bytes_}; }

 private:
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace partib::bench

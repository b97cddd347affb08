#include "hostspeed.hpp"

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "probes.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kFaultBytes = std::size_t{1} << 20;
constexpr int kHeapEntries = 32768;
constexpr int kHeapOps = 10000;
constexpr std::uint64_t kMapKeys = 16384;
constexpr std::size_t kMapCap = 8192;
constexpr int kMapOps = 10000;
constexpr std::uint32_t kChaseEntries = std::uint32_t{1} << 21;  // 8 MiB
constexpr int kChaseLoads = 4000;

}  // namespace

HostSpeed::HostSpeed() : chase_(kChaseEntries) {
  for (int k = 0; k < kHeapEntries; ++k) {
    queue_.push(static_cast<std::uint64_t>(k) * 37);
  }
  // Sattolo's shuffle: one cycle through every entry, so the loads never
  // settle into a short, cache-resident loop.
  for (std::uint32_t i = 0; i < kChaseEntries; ++i) chase_[i] = i;
  for (std::uint32_t i = kChaseEntries - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[next() % i]);
  }
}

std::uint64_t HostSpeed::next() {
  x_ ^= x_ << 13;
  x_ ^= x_ >> 7;
  x_ ^= x_ << 17;
  return x_;
}

double HostSpeed::sample() {
  const std::int64_t t0 = now_ns();
  // Kernel: fault in, zero and write a fresh anonymous mapping.
  void* p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("hostspeed: mmap failed");
  std::memset(p, 1, kFaultBytes);
  munmap(p, kFaultBytes);
  // Event queue: pop the earliest time, push a later one.
  for (int k = 0; k < kHeapOps; ++k) {
    const std::uint64_t t = queue_.top();
    queue_.pop();
    queue_.push(t + (next() & 1023));
  }
  // Node churn: hash-map inserts and erases, each a small allocation.
  for (int k = 0; k < kMapOps; ++k) {
    map_[next() % kMapKeys] += static_cast<std::uint64_t>(k);
    if (map_.size() > kMapCap) map_.erase(map_.begin());
  }
  // Memory latency: dependent loads around a cycle larger than the caches
  // one core owns.
  std::uint32_t at = cursor_;
  for (int k = 0; k < kChaseLoads; ++k) at = chase_[at];
  cursor_ = at;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void HostSpeed::sample_after(double busy_s) {
  double spent = 0.0;
  do {
    spent += sample();
    ++samples_;
  } while (spent < kShare * busy_s);
  seconds_ += spent;
}

double HostSpeed::factor() const {
  return seconds_ > 0.0
             ? kNominalSampleS * static_cast<double>(samples_) / seconds_
             : 1.0;
}

void HostSpeed::reset() {
  samples_ = 0;
  seconds_ = 0.0;
}

}  // namespace perfbench

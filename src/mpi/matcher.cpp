#include "mpi/matcher.hpp"

#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace partib::mpi {

namespace {

constexpr std::size_t kMinTable = 16;

}  // namespace

template <class T>
template <class V>
std::uint32_t InitMatcher::Slab<T>::put(V&& value, std::uint64_t seq) {
  ++live;
  if (free == kNil) {
    nodes.emplace_back(std::forward<V>(value), seq, kNil);
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }
  const std::uint32_t i = free;
  Node& n = nodes[i];
  free = n.next;
  n.value = std::forward<V>(value);
  n.seq = seq;
  n.next = kNil;
  return i;
}

template <class T>
void InitMatcher::Slab<T>::release(std::uint32_t i) {
  --live;
  nodes[i].next = free;
  free = i;
}

std::size_t InitMatcher::home(const MatchKey& key) const {
  // Multiplicative hash of (peer, tag, comm) packed into one word; the
  // top bits depend on every bit of it.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.peer)) << 32 |
       static_cast<std::uint32_t>(key.tag)) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.comm_id)) << 48;
  return static_cast<std::size_t>((packed * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t InitMatcher::cell(const MatchKey& key) const {
  std::size_t i = home(key);
  while (table_[i].head != kNil && table_[i].key != key) i = (i + 1) & mask_;
  return i;
}

void InitMatcher::resize_table(std::size_t size) {
  std::vector<Queue> old = std::exchange(table_, std::vector<Queue>(size));
  shift_ = 64 - log2_floor(size);
  mask_ = size - 1;
  for (const Queue& q : old) {
    if (q.head != kNil) table_[cell(q.key)] = q;
  }
}

template <class T, class V>
void InitMatcher::push(std::size_t c, const MatchKey& key, Slab<T>& slab,
                       V&& value) {
  const std::uint32_t i = slab.put(std::forward<V>(value), next_seq_++);
  if (table_[c].head != kNil) {
    slab.nodes[table_[c].tail].next = i;
    table_[c].tail = i;
    return;
  }
  // A new chain claims the empty cell, growing the table at load 1/2.
  if (2 * (keys_ + 1) > mask_ + 1) {
    resize_table(2 * (mask_ + 1));
    c = cell(key);
  }
  ++keys_;
  // Field by field: an aggregate store compiles to a stack temporary
  // reloaded through mismatched widths, a store-forwarding stall.
  Queue& q = table_[c];
  q.key = key;
  q.head = i;
  q.tail = i;
  q.sends = std::is_same_v<T, SendInit>;
}

template <class T>
std::uint32_t InitMatcher::pop(std::size_t c, Slab<T>& slab) {
  Queue& q = table_[c];
  const std::uint32_t i = q.head;
  q.head = slab.nodes[i].next;
  // The chain's head is the oldest entry of its key, which is exactly
  // MPI's ordered-matching rule.
#if PARTIB_CHECK_ENABLED
  if (q.head != kNil) {
    PARTIB_ASSERT_MSG(slab.nodes[i].seq < slab.nodes[q.head].seq,
                      "matcher drain order not posted order");
  }
#endif
  if (q.head == kNil) erase(c);
  return i;
}

void InitMatcher::erase(std::size_t c) {
  for (std::size_t j = (c + 1) & mask_; table_[j].head != kNil;
       j = (j + 1) & mask_) {
    // Cell j may fill the hole only if the hole lies on its probe path,
    // i.e. its home is no later (cyclically) than the hole.
    if (((j - home(table_[j].key)) & mask_) >= ((j - c) & mask_)) {
      table_[c] = table_[j];
      c = j;
    }
  }
  table_[c].head = kNil;
  --keys_;
}

void InitMatcher::post_recv_init(const MatchKey& key, OnMatch on_match) {
  SendInit matched;
  {
    common::MutexLock lock(mu_);
    if (table_.empty()) resize_table(kMinTable);
    const std::size_t c = cell(key);
    if (table_[c].head == kNil || !table_[c].sends) {
      push(c, key, recvs_, std::move(on_match));
      return;
    }
    const std::uint32_t i = pop(c, sends_);
    matched = std::move(sends_.nodes[i].value);
    sends_.release(i);
  }
  on_match(matched);  // outside mu_ (header comment)
}

void InitMatcher::on_send_init(const SendInit& init) {
  OnMatch on_match;
  {
    common::MutexLock lock(mu_);
    if (table_.empty()) resize_table(kMinTable);
    const std::size_t c = cell(init.key);
    if (table_[c].head == kNil || table_[c].sends) {
      push(c, init.key, sends_, init);
      return;
    }
    const std::uint32_t i = pop(c, recvs_);
    on_match = std::move(recvs_.nodes[i].value);
    recvs_.release(i);
  }
  on_match(init);  // outside mu_ (header comment)
}

}  // namespace partib::mpi

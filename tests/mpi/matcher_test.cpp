// Ordered matching of Psend_init/Precv_init pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "mpi/matcher.hpp"
#include "support/reference_matcher.hpp"

namespace partib::mpi {
namespace {

SendInit init_for(int peer, int tag, int comm, std::size_t bytes = 64) {
  SendInit si;
  si.key = MatchKey{peer, tag, comm};
  si.total_bytes = bytes;
  return si;
}

/// Runs one scripted schedule through the matcher and the map/deque
/// reference side by side.  Recvs are stamped with their posting index and
/// sends with a unique total_bytes, so a match event is the pair
/// (recv index, send stamp); the two event logs must be equal.
struct Differential {
  InitMatcher m;
  test::ReferenceInitMatcher ref;
  std::vector<std::string> got, want;
  std::size_t next_recv = 0;
  std::size_t next_bytes = 1;

  void recv(const MatchKey& key) {
    const std::size_t r = next_recv++;
    m.post_recv_init(key, [this, r](const SendInit& si) {
      got.push_back(std::to_string(r) + ":" + std::to_string(si.total_bytes));
    });
    ref.post_recv_init(key, [this, r](const SendInit& si) {
      want.push_back(std::to_string(r) + ":" + std::to_string(si.total_bytes));
    });
  }
  void send(const MatchKey& key) {
    const SendInit si = init_for(key.peer, key.tag, key.comm_id, next_bytes++);
    m.on_send_init(si);
    ref.on_send_init(si);
  }
  void expect_same() const {
    ASSERT_EQ(got, want);
    ASSERT_EQ(m.pending_recvs(), ref.pending_recvs());
    ASSERT_EQ(m.unexpected_sends(), ref.unexpected_sends());
  }
};

enum class Order { kPosted, kReversed, kShuffled };

std::vector<std::size_t> delivery(std::size_t n, Order order) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  if (order == Order::kReversed) std::reverse(idx.begin(), idx.end());
  if (order == Order::kShuffled) {
    std::shuffle(idx.begin(), idx.end(), std::mt19937(4096));
  }
  return idx;
}

TEST(Matcher, RecvFirstThenSend) {
  InitMatcher m;
  std::size_t matched_bytes = 0;
  m.post_recv_init(MatchKey{0, 1, 2},
                   [&](const SendInit& si) { matched_bytes = si.total_bytes; });
  EXPECT_EQ(m.pending_recvs(), 1u);
  m.on_send_init(init_for(0, 1, 2, 128));
  EXPECT_EQ(matched_bytes, 128u);
  EXPECT_EQ(m.pending_recvs(), 0u);
  EXPECT_EQ(m.unexpected_sends(), 0u);
}

TEST(Matcher, SendFirstThenRecv) {
  InitMatcher m;
  m.on_send_init(init_for(3, 4, 5, 256));
  EXPECT_EQ(m.unexpected_sends(), 1u);
  std::size_t matched_bytes = 0;
  m.post_recv_init(MatchKey{3, 4, 5},
                   [&](const SendInit& si) { matched_bytes = si.total_bytes; });
  EXPECT_EQ(matched_bytes, 256u);
  EXPECT_EQ(m.unexpected_sends(), 0u);
}

TEST(Matcher, DifferentTagsDoNotMatch) {
  InitMatcher m;
  bool matched = false;
  m.post_recv_init(MatchKey{0, 1, 0}, [&](const SendInit&) { matched = true; });
  m.on_send_init(init_for(0, 2, 0));
  EXPECT_FALSE(matched);
  EXPECT_EQ(m.pending_recvs(), 1u);
  EXPECT_EQ(m.unexpected_sends(), 1u);
}

TEST(Matcher, DifferentPeersDoNotMatch) {
  InitMatcher m;
  bool matched = false;
  m.post_recv_init(MatchKey{0, 1, 0}, [&](const SendInit&) { matched = true; });
  m.on_send_init(init_for(7, 1, 0));
  EXPECT_FALSE(matched);
}

TEST(Matcher, DifferentCommunicatorsDoNotMatch) {
  InitMatcher m;
  bool matched = false;
  m.post_recv_init(MatchKey{0, 1, 0}, [&](const SendInit&) { matched = true; });
  m.on_send_init(init_for(0, 1, 9));
  EXPECT_FALSE(matched);
}

TEST(Matcher, SameKeyMatchesInPostedOrder) {
  InitMatcher m;
  std::vector<std::size_t> matched;
  m.post_recv_init(MatchKey{0, 1, 0},
                   [&](const SendInit& si) { matched.push_back(si.total_bytes); });
  m.post_recv_init(MatchKey{0, 1, 0},
                   [&](const SendInit& si) { matched.push_back(si.total_bytes); });
  m.on_send_init(init_for(0, 1, 0, 111));
  m.on_send_init(init_for(0, 1, 0, 222));
  EXPECT_EQ(matched, (std::vector<std::size_t>{111, 222}));
}

TEST(Matcher, UnexpectedQueueDrainsInArrivalOrder) {
  InitMatcher m;
  m.on_send_init(init_for(0, 1, 0, 111));
  m.on_send_init(init_for(0, 1, 0, 222));
  std::vector<std::size_t> matched;
  m.post_recv_init(MatchKey{0, 1, 0},
                   [&](const SendInit& si) { matched.push_back(si.total_bytes); });
  m.post_recv_init(MatchKey{0, 1, 0},
                   [&](const SendInit& si) { matched.push_back(si.total_bytes); });
  EXPECT_EQ(matched, (std::vector<std::size_t>{111, 222}));
}

TEST(Matcher, InterleavedKeysStaySeparate) {
  InitMatcher m;
  std::vector<int> tags;
  m.post_recv_init(MatchKey{0, 1, 0}, [&](const SendInit& si) {
    tags.push_back(si.key.tag);
  });
  m.post_recv_init(MatchKey{0, 2, 0}, [&](const SendInit& si) {
    tags.push_back(si.key.tag);
  });
  m.on_send_init(init_for(0, 2, 0));
  m.on_send_init(init_for(0, 1, 0));
  EXPECT_EQ(tags, (std::vector<int>{2, 1}));
}

TEST(Matcher, DifferentialFuzzAgainstMapDequeReference) {
  // The matcher must produce exactly the match sequence of the seed's
  // map/deque implementation (tests/support/reference_matcher.hpp): same
  // pairings, in the same order, for any interleaving of posts.
  {
    // One peer with a recv waiting on one tag and a send waiting on
    // another at the same time: each arrival scans only the other side
    // of its peer, so neither may pair with the other's waiting entry.
    Differential d;
    d.recv(MatchKey{1, 5, 0});
    d.send(MatchKey{1, 6, 0});
    d.expect_same();
    if (HasFatalFailure()) return;
    EXPECT_TRUE(d.got.empty());
    EXPECT_EQ(d.m.pending_recvs(), 1u);
    EXPECT_EQ(d.m.unexpected_sends(), 1u);
    d.send(MatchKey{1, 5, 0});
    d.recv(MatchKey{1, 6, 0});
    d.expect_same();
    if (HasFatalFailure()) return;
    EXPECT_EQ(d.got, (std::vector<std::string>{"0:2", "1:1"}));
    EXPECT_EQ(d.m.pending_recvs(), 0u);
    EXPECT_EQ(d.m.unexpected_sends(), 0u);
  }
  std::mt19937 rng(424242);
  for (int iter = 0; iter < 200; ++iter) {
    Differential d;
    const int ops = 20 + static_cast<int>(rng() % 60);
    for (int op = 0; op < ops; ++op) {
      const MatchKey key{static_cast<int>(rng() % 3),
                         static_cast<int>(rng() % 3), 0};
      if (rng() % 2 == 0) {
        d.recv(key);
      } else {
        d.send(key);
      }
      SCOPED_TRACE(testing::Message() << "iter " << iter << " op " << op);
      d.expect_same();
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Matcher, HotRankScaleMatchesReferenceInEveryDeliveryOrder) {
  // The incast hot rank: 4096 peers, one channel each.
  // Recv-first posts every Precv_init and then delivers the handshakes;
  // send-first delivers the handshakes and then posts.  Either way the
  // second side arrives in posted, reversed or shuffled order.
  constexpr std::size_t kKeys = 4096;
  std::vector<MatchKey> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(MatchKey{static_cast<int>(i + 1), static_cast<int>(i), 0});
  }
  for (const bool recv_first : {true, false}) {
    for (const Order order :
         {Order::kPosted, Order::kReversed, Order::kShuffled}) {
      SCOPED_TRACE(testing::Message() << "recv_first=" << recv_first
                                      << " order=" << static_cast<int>(order));
      Differential d;
      for (const MatchKey& k : keys) {
        if (recv_first) {
          d.recv(k);
        } else {
          d.send(k);
        }
      }
      EXPECT_EQ(recv_first ? d.m.pending_recvs() : d.m.unexpected_sends(),
                kKeys);
      for (const std::size_t i : delivery(kKeys, order)) {
        if (recv_first) {
          d.send(keys[i]);
        } else {
          d.recv(keys[i]);
        }
      }
      d.expect_same();
      EXPECT_EQ(d.got.size(), kKeys);
      EXPECT_EQ(d.m.pending_recvs(), 0u);
      EXPECT_EQ(d.m.unexpected_sends(), 0u);
    }
  }
}

TEST(Matcher, RepeatedKeysDrainFifoAtScale) {
  // Several entries per key, interleaved across keys: each key's entries
  // must drain in posted order however the keys' arrivals interleave.
  constexpr int kKeys = 512;
  constexpr int kPerKey = 6;
  for (const bool recv_first : {true, false}) {
    for (const Order order :
         {Order::kPosted, Order::kReversed, Order::kShuffled}) {
      SCOPED_TRACE(testing::Message() << "recv_first=" << recv_first
                                      << " order=" << static_cast<int>(order));
      Differential d;
      std::vector<MatchKey> posts;
      for (int rep = 0; rep < kPerKey; ++rep) {
        for (int k = 0; k < kKeys; ++k) posts.push_back(MatchKey{k, 7, 1});
      }
      for (const MatchKey& k : posts) {
        if (recv_first) {
          d.recv(k);
        } else {
          d.send(k);
        }
      }
      for (const std::size_t i : delivery(posts.size(), order)) {
        if (recv_first) {
          d.send(posts[i]);
        } else {
          d.recv(posts[i]);
        }
      }
      d.expect_same();
      EXPECT_EQ(d.got.size(), posts.size());
    }
  }
}

TEST(Matcher, SameKeyManyDeepDrainsFifo) {
  // One key, many entries queued on each side in turn.
  InitMatcher m;
  std::vector<std::size_t> matched;
  for (std::size_t b = 1; b <= 100; ++b) m.on_send_init(init_for(2, 3, 4, b));
  for (int i = 0; i < 150; ++i) {
    m.post_recv_init(MatchKey{2, 3, 4}, [&](const SendInit& si) {
      matched.push_back(si.total_bytes);
    });
  }
  EXPECT_EQ(m.unexpected_sends(), 0u);
  EXPECT_EQ(m.pending_recvs(), 50u);
  for (std::size_t b = 101; b <= 150; ++b) m.on_send_init(init_for(2, 3, 4, b));
  std::vector<std::size_t> want(150);
  std::iota(want.begin(), want.end(), std::size_t{1});
  EXPECT_EQ(matched, want);
  EXPECT_EQ(m.pending_recvs(), 0u);
}

TEST(Matcher, WideKeyFuzzAgainstMapDequeReference) {
  // Many live keys at once with queues on both sides coming and going:
  // 64 peers, each with up to 32 (tag, comm) keys waiting, so matches
  // erase from the front, middle and back of a peer's entries while the
  // peer index grows to cover every rank.
  std::mt19937 rng(777);
  for (int iter = 0; iter < 20; ++iter) {
    Differential d;
    for (int op = 0; op < 4000; ++op) {
      const MatchKey key{static_cast<int>(rng() % 64),
                         static_cast<int>(rng() % 16),
                         static_cast<int>(rng() % 2)};
      if (rng() % 2 == 0) {
        d.recv(key);
      } else {
        d.send(key);
      }
    }
    d.expect_same();
  }
}

}  // namespace
}  // namespace partib::mpi

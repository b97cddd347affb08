// The shm transport's DMA engine (backend/shm/dma_engine.hpp): a large
// payload copy is split into 64 KiB chunks that the caller and helper
// threads copy together.  These tests hold its contract:
//
//   * a copy is memcpy, byte for byte, at every size around the chunk
//     and split thresholds and at unaligned offsets, also when copies
//     run back to back so helpers straddle two jobs;
//   * several owner threads copying through one transport at once all
//     land their bytes (all but one take the memcpy fallback);
//   * a transport is destroyed cleanly whether its helpers are parked or
//     never started;
//   * a 1 MiB verbs RDMA-write-with-immediate gathers three send SGEs
//     into one contiguous landing through the engine.
//
// Carries the `threaded` label: TSan checks the cursor/done hand-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "backend/shm/dma_engine.hpp"
#include "backend/shm/shm_transport.hpp"
#include "common/clock.hpp"
#include "common/units.hpp"
#include "fabric/rdma_op.hpp"
#include "support/backend_fixture.hpp"
#include "verbs/verbs.hpp"

namespace partib::backend {
namespace {

/// A pattern that differs at every 8-byte word and from one `salt` to
/// the next, so a chunk landing at the wrong offset or from the wrong job
/// shows.
void fill(std::span<std::byte> buf, unsigned salt) {
  std::uint64_t word = 0x9E3779B97F4A7C15ull * (salt + 1);
  std::size_t i = 0;
  for (; i + sizeof word <= buf.size(); i += sizeof word) {
    std::memcpy(buf.data() + i, &word, sizeof word);
    word += 0x2545F4914F6CDD1Dull;
  }
  for (; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(salt + i);
}

/// Drive a single-driver transport until every op has completed.
void drain(ShmTransport& t) {
  while (!t.idle()) t.progress_all(t.now());
}

/// Post one op from `a` to `b` whose delivery copies `n` bytes through
/// dma_copy, as the verbs layer's move_data does.
void post_copy(ShmTransport& t, fabric::NodeId a, fabric::NodeId b,
               std::byte* to, const std::byte* from, std::size_t n) {
  fabric::RdmaOp op;
  op.src = a;
  op.dst = b;
  op.src_qp = 1;
  op.bytes = n;
  op.move_data = [to, from, n] { dma_copy(to, from, n); };
  t.post_rdma_write(std::move(op));
}

TEST(ShmDma, CopyMatchesMemcpyAtEverySizeAndOffset) {
  DmaEngine engine;
  const std::size_t sizes[] = {0,
                               1,
                               64 * KiB - 1,
                               64 * KiB,
                               64 * KiB + 1,
                               256 * KiB - 1,
                               256 * KiB,
                               256 * KiB + 1,
                               2 * MiB + 3};
  const std::size_t offsets[][2] = {{0, 0}, {1, 3}, {7, 0}, {0, 5}};
  unsigned salt = 0;
  for (const std::size_t n : sizes) {
    for (const auto& off : offsets) {
      std::vector<std::byte> src(n + 8), dst(n + 16), want(n + 16);
      fill(src, ++salt);
      fill(dst, ~salt);
      want = dst;
      std::memcpy(want.data() + off[1], src.data() + off[0], n);
      engine.copy(dst.data() + off[1], src.data() + off[0], n);
      EXPECT_EQ(dst, want) << n << " bytes, src+" << off[0] << " dst+"
                           << off[1];
    }
  }
  EXPECT_EQ(engine.started(), engine.max_helpers());
}

/// True when the last byte of every chunk of `dst` matches `src`: read
/// the instant copy() returns, it catches a chunk still in flight.
bool every_chunk_landed(const std::vector<std::byte>& dst,
                        const std::vector<std::byte>& src) {
  constexpr std::size_t kChunk = DmaEngine::kChunkBytes;
  for (std::size_t end = kChunk;; end += kChunk) {
    const std::size_t last = std::min(end, src.size()) - 1;
    if (dst[last] != src[last]) return false;
    if (end >= src.size()) return true;
  }
}

TEST(ShmDma, BackToBackCopiesNeverMixJobs) {
  // Eight jobs run with no gap between them, so a helper finishing a
  // chunk of one often meets the next one already published: it must
  // claim nothing of it with the old job's pointers, and copy() must not
  // return before the chunks a helper claimed have landed.  Sizes
  // alternate between 6 and 10 chunks, so a helper that takes a finished
  // 6-chunk job's generation with the next job's size finds chunks past
  // the end of the job it holds; each job has its own source and
  // destination, so a chunk copied with mixed pointers shows too.
  constexpr int kJobs = 8;
  auto bytes_of = [](int j) {
    return j % 2 == 0 ? 5 * DmaEngine::kChunkBytes + 1
                      : 9 * DmaEngine::kChunkBytes + 3;
  };
  DmaEngine engine;
  std::vector<std::byte> src[kJobs], dst[kJobs];
  for (int j = 0; j < kJobs; ++j) {
    src[j].resize(bytes_of(j));
    fill(src[j], static_cast<unsigned>(j));
    dst[j].resize(bytes_of(j));
  }
  for (int batch = 0; batch < 500; ++batch) {
    for (auto& d : dst) std::fill(d.begin(), d.end(), std::byte{0});
    bool landed[kJobs];
    for (int j = 0; j < kJobs; ++j) {
      engine.copy(dst[j].data(), src[j].data(), bytes_of(j));
      landed[j] = every_chunk_landed(dst[j], src[j]);
    }
    for (int j = 0; j < kJobs; ++j) {
      ASSERT_TRUE(landed[j]) << "batch " << batch << " job " << j;
      ASSERT_EQ(dst[j], src[j]) << "batch " << batch << " job " << j;
    }
  }
}

TEST(ShmDma, FourOwnerThreadsCopyConcurrentlyThroughOneTransport) {
  // One owner thread per node, each delivering large ops from its left
  // neighbour: the engine serves one job at a time and the other callers
  // copy on their own.  Every byte must land either way.
  constexpr int kNodes = 4;
  constexpr int kOps = 12;
  constexpr std::size_t kBytes = 512 * KiB + 9;
  ShmTransport t({});
  for (int i = 0; i < kNodes; ++i) t.add_node();
  std::vector<std::byte> src[kNodes], dst[kNodes];
  for (int i = 0; i < kNodes; ++i) {
    src[i].resize(kBytes * kOps);
    fill(src[i], static_cast<unsigned>(i + 1));
    dst[i].assign(src[i].size(), std::byte{0});
  }
  std::atomic<int> acked[kNodes] = {};
  std::atomic<int> landed[kNodes] = {};

  auto owner = [&](int me) {
    const int right = (me + 1) % kNodes;
    for (int k = 0; k < kOps; ++k) {
      const std::size_t off = static_cast<std::size_t>(k) * kBytes;
      fabric::RdmaOp op;
      op.src = me;
      op.dst = right;
      op.src_qp = static_cast<std::uint64_t>(me) + 1;
      op.bytes = kBytes;
      std::byte* to = dst[right].data() + off;
      const std::byte* from = src[me].data() + off;
      op.move_data = [to, from, n = kBytes] { dma_copy(to, from, n); };
      op.on_recv_complete = [&landed, right](Time) {
        landed[right].fetch_add(1, std::memory_order_relaxed);
      };
      op.on_send_complete = [&acked, me](Time) {
        acked[me].fetch_add(1, std::memory_order_relaxed);
      };
      t.post_rdma_write(std::move(op));
      t.progress_node(me, t.now());
    }
    while (acked[me].load(std::memory_order_relaxed) < kOps ||
           landed[me].load(std::memory_order_relaxed) < kOps) {
      if (t.progress_node(me, t.now()) == 0) std::this_thread::yield();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kNodes; ++i) threads.emplace_back(owner, i);
  for (std::thread& th : threads) th.join();

  for (int i = 0; i < kNodes; ++i) {
    EXPECT_EQ(dst[(i + 1) % kNodes], src[i]) << "from node " << i;
  }
  EXPECT_TRUE(t.idle());
  EXPECT_EQ(t.stats().failed_ops, 0u);
}

TEST(ShmDma, DestroysTransportWithParkedHelpers) {
  std::vector<std::byte> src(1 * MiB), dst(src.size());
  fill(src, 42);
  {
    ShmTransport t({});
    const fabric::NodeId a = t.add_node();
    const fabric::NodeId b = t.add_node();
    post_copy(t, a, b, dst.data(), src.data(), src.size());
    drain(t);
    EXPECT_EQ(dst, src);
    const DmaEngine& dma = t.dma();
    ASSERT_EQ(dma.started(), dma.max_helpers());
    // Helpers park one spin horizon after their last chunk.
    const Time deadline = common::mono_now() + kSecond * 10;
    while (dma.parked() != dma.max_helpers() &&
           common::mono_now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(dma.parked(), dma.max_helpers());
  }  // joins the parked helpers
}

TEST(ShmDma, DestroysTransportWhoseHelpersNeverStarted) {
  std::vector<std::byte> src(DmaEngine::kSplitBytes - 1), dst(src.size());
  fill(src, 7);
  {
    ShmTransport t({});
    const fabric::NodeId a = t.add_node();
    const fabric::NodeId b = t.add_node();
    post_copy(t, a, b, dst.data(), src.data(), src.size());
    drain(t);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(t.dma().started(), 0u);
  }
  DmaEngine unused;
  EXPECT_EQ(unused.started(), 0u);
}

TEST(ShmDma, VerbsWriteGathersThreeSendSges) {
  // A 1 MiB RDMA-write-with-immediate gathered from three send SGEs with
  // gaps between them, landing at an unaligned remote address: two pieces
  // are large enough to split, the last one is not.  The bytes around the
  // landing must stay untouched.
  constexpr std::size_t kWrite = 1 * MiB;
  constexpr std::size_t kPiece[3] = {300 * KiB + 7, 512 * KiB,
                                     kWrite - (300 * KiB + 7) - 512 * KiB};
  constexpr std::size_t kGap = 4 * KiB + 1;
  test::current_backend() = "shm";
  test::BackendVerbsFx fx;
  test::current_backend() = "des";
  std::vector<std::byte> sbuf(kWrite + 4 * kGap);
  std::vector<std::byte> rbuf(kWrite + 2 * kGap);
  fill(sbuf, 3);
  std::fill(rbuf.begin(), rbuf.end(), std::byte{0xEE});
  verbs::Mr& smr = fx.spd->register_mr(sbuf, verbs::kLocalRead);
  verbs::Mr& rmr = fx.rpd->register_mr(
      rbuf, verbs::kLocalWrite | verbs::kRemoteWrite);
  auto [s, r] = fx.connected_pair();

  verbs::RecvWr rwr;
  rwr.wr_id = 5;
  ASSERT_TRUE(ok(r->post_recv(rwr)));
  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
  wr.imm = 3;
  wr.remote_addr = rmr.addr() + kGap;
  wr.rkey = rmr.rkey();
  std::vector<std::byte> want(rbuf);
  std::size_t at = kGap;
  std::size_t from = kGap;
  for (const std::size_t piece : kPiece) {
    wr.sg_list.push_back(verbs::Sge{smr.addr() + from,
                                    static_cast<std::uint32_t>(piece),
                                    smr.lkey()});
    std::memcpy(want.data() + at, sbuf.data() + from, piece);
    at += piece;
    from += piece + kGap;
  }
  ASSERT_TRUE(ok(s->post_send(wr)));
  fx.drive();

  const std::vector<verbs::Wc> wcs = fx.drain(*fx.rcq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, verbs::WcStatus::kSuccess);
  EXPECT_EQ(wcs[0].opcode, verbs::WcOpcode::kRecvRdmaWithImm);
  EXPECT_EQ(wcs[0].wr_id, 5u);
  EXPECT_EQ(wcs[0].imm, 3u);
  EXPECT_EQ(wcs[0].byte_len, kWrite);
  EXPECT_EQ(std::memcmp(rbuf.data(), want.data(), rbuf.size()), 0);
}

}  // namespace
}  // namespace partib::backend

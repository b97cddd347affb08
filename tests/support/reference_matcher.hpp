// Verbatim copy of the seed's map/deque InitMatcher, kept as the
// differential-test oracle for mpi::InitMatcher's per-key FIFO chains.
// Do not "improve" this file: its value is that it is byte-for-byte the
// algorithm the figure fingerprints were first recorded against.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "mpi/matcher.hpp"

namespace partib::test {

/// The pre-rewrite matcher: one std::map of per-key std::deques per side.
/// Drain order per key is posted order (deque FIFO), which is exactly the
/// invariant the rewrite's per-key chains must reproduce.
class ReferenceInitMatcher {
 public:
  using OnMatch = mpi::InitMatcher::OnMatch;

  void post_recv_init(const mpi::MatchKey& key, OnMatch on_match) {
    auto uit = unexpected_send_.find(key);
    if (uit != unexpected_send_.end() && !uit->second.empty()) {
      const mpi::SendInit init = uit->second.front();
      uit->second.pop_front();
      if (uit->second.empty()) unexpected_send_.erase(uit);
      on_match(init);
      return;
    }
    pending_recv_[key].push_back(std::move(on_match));
  }

  void on_send_init(const mpi::SendInit& init) {
    auto pit = pending_recv_.find(init.key);
    if (pit != pending_recv_.end() && !pit->second.empty()) {
      OnMatch on_match = std::move(pit->second.front());
      pit->second.pop_front();
      if (pit->second.empty()) pending_recv_.erase(pit);
      on_match(init);
      return;
    }
    unexpected_send_[init.key].push_back(init);
  }

  std::size_t pending_recvs() const {
    std::size_t n = 0;
    for (const auto& [k, q] : pending_recv_) n += q.size();
    return n;
  }

  std::size_t unexpected_sends() const {
    std::size_t n = 0;
    for (const auto& [k, q] : unexpected_send_) n += q.size();
    return n;
  }

 private:
  std::map<mpi::MatchKey, std::deque<OnMatch>> pending_recv_;
  std::map<mpi::MatchKey, std::deque<mpi::SendInit>> unexpected_send_;
};

}  // namespace partib::test

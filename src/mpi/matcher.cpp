#include "mpi/matcher.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace partib::mpi {

InitMatcher::Peer& InitMatcher::peer(int rank) {
  PARTIB_ASSERT(rank >= 0);
  const auto i = static_cast<std::size_t>(rank);
  if (i >= peers_.size()) peers_.resize(i + 1);
  return peers_[i];
}

void InitMatcher::post_recv_init(const MatchKey& key, OnMatch on_match) {
  SendInit matched;
  {
    common::MutexLock lock(mu_);
    Peer& p = peer(key.peer);
    const auto it = std::ranges::find(p.sends, key, &SendInit::key);
    if (it == p.sends.end()) {
      p.recvs.push_back({key, std::move(on_match)});
      return;
    }
    matched = std::move(*it);
    p.sends.erase(it);
  }
  on_match(matched);  // outside mu_ (header comment)
}

void InitMatcher::on_send_init(const SendInit& init) {
  OnMatch on_match;
  {
    common::MutexLock lock(mu_);
    Peer& p = peer(init.key.peer);
    const auto it = std::ranges::find(p.recvs, init.key, &WaitingRecv::key);
    if (it == p.recvs.end()) {
      p.sends.push_back(init);
      return;
    }
    on_match = std::move(it->on_match);
    p.recvs.erase(it);
  }
  on_match(init);  // outside mu_ (header comment)
}

std::size_t InitMatcher::pending_recvs() const {
  common::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const Peer& p : peers_) n += p.recvs.size();
  return n;
}

std::size_t InitMatcher::unexpected_sends() const {
  common::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const Peer& p : peers_) n += p.sends.size();
  return n;
}

}  // namespace partib::mpi

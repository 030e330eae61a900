// The group both live harnesses run, and the one attacker that floods it
// (DESIGN.md §10). harness::Cluster (virtual time) and harness::Swarm (wall
// clock) build their members and realize drum::adversary plans here.
//
// Layout, the simulator's (sim/engine.cpp): with m = llround(malicious·n),
// ids [0, m) are the adversary's insiders — in every directory, with real
// identities the attacker holds, but running no node (their gossip is
// wasted, paper §7). The source is id m, and the victims are the first
// llround(alpha·n) live ids, so the source is attacked whenever anyone is.
//
// The attacker plans once per round of B bursts and spreads each flood of
// count c evenly: burst b sends ⌊(b+1)c/B⌋ − ⌊bc/B⌋, so no part of the round
// is a clean window. A spoofed frame carries a random box and claimed
// sender from a spoofed address (unattributable; the victim pays decode and
// box open); an insider frame is sealed under the colluder's pair key, so it
// authenticates and then black-holes whatever the victim sends back.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "drum/adversary/adversary.hpp"
#include "drum/core/config.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/util/rng.hpp"

namespace drum::harness {

struct GroupConfig {
  std::size_t n = 0;       ///< directory entries, insiders included
  double malicious = 0.0;  ///< insider fraction
  double alpha = 0.0;      ///< attacked fraction of the group
  /// Every member on 127.0.0.1 with real sockets; otherwise host = id on an
  /// in-memory LAN with this loss and one-way latency.
  bool use_udp = false;
  double loss = 0.0;
  std::int64_t latency_us = 0;
  /// Member id's well-known pull, offer and pull-reply ports are
  /// base_port + 3·id + {0, 1, 2}.
  std::uint16_t base_port = 0;
};

class Group {
 public:
  /// Draws the LAN's seed, then the n identities in id order, from `rng`.
  /// Throws std::invalid_argument for fewer than 4 members or no live one.
  Group(const GroupConfig& cfg, util::Rng& rng);

  [[nodiscard]] std::size_t size() const { return identities_.size(); }
  /// The insiders are ids [0, first_live()); the source is first_live().
  [[nodiscard]] std::uint32_t first_live() const {
    return static_cast<std::uint32_t>(insiders_.size());
  }
  [[nodiscard]] std::span<const std::uint32_t> insiders() const {
    return insiders_;
  }
  [[nodiscard]] std::span<const std::uint32_t> victims() const {
    return victims_;
  }
  [[nodiscard]] bool is_victim(std::uint32_t id) const {
    return id >= first_live() && id - first_live() < victims_.size();
  }
  /// One immutable id-indexed directory every node shares.
  [[nodiscard]] const core::Node::PeerDirectory& directory() const {
    return directory_;
  }
  [[nodiscard]] const core::Peer& peer(std::uint32_t id) const {
    return (*directory_)[id];
  }
  [[nodiscard]] const crypto::Identity& identity(std::uint32_t id) const {
    return identities_[id];
  }
  /// make_node_config for member `id`, with the ports of its Peer entry.
  [[nodiscard]] core::NodeConfig node_config(core::Variant variant,
                                             std::uint32_t id,
                                             std::size_t fanout) const;
  /// The in-memory LAN; null when the group runs on UDP.
  [[nodiscard]] net::MemNetwork* mem_net() const { return mem_net_.get(); }

 private:
  std::unique_ptr<net::MemNetwork> mem_net_;
  std::vector<crypto::Identity> identities_;
  core::Node::PeerDirectory directory_;
  std::vector<std::uint32_t> insiders_;
  std::vector<std::uint32_t> victims_;
};

class Attacker {
 public:
  /// Runs registry strategy `strategy` (std::invalid_argument if unknown)
  /// with `params` against `group`, which must outlive it and whose budgets
  /// follow `variant` and `fanout`. Draws from its own RNG, seeded from
  /// `seed`. Sends on the group's in-memory LAN, or from one loopback UDP
  /// socket bound here.
  Attacker(const Group& group, core::Variant variant, std::size_t fanout,
           std::string_view strategy, const adversary::Params& params,
           std::uint64_t seed, std::size_t bursts_per_round);

  /// The arming rule: the group has victims, the attacker has a budget
  /// (params.x > 0) or insiders, and its first round's plan sends
  /// something. A harness schedules no attacker event for an unarmed one.
  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] bool attacks(std::uint32_t id) const {
    return armed_ && group_.is_victim(id);
  }
  /// True when the next send_burst() starts a new round.
  [[nodiscard]] bool round_done() const { return burst_ == bursts_; }

  /// Crafts and sends the next burst, planning a new round first from
  /// `usefulness` (activity per id since the last plan; may be empty) when
  /// the last one is done. Returns the datagrams sent.
  std::size_t send_burst(std::span<const float> usefulness);

 private:
  void plan_round(std::span<const float> usefulness);
  util::Bytes craft(const adversary::Flood& f);

  const Group& group_;
  core::NodeConfig proto_;  // the victims' variant and public budgets
  std::unique_ptr<adversary::Adversary> strategy_;
  util::Rng rng_;
  std::size_t bursts_;
  std::size_t burst_ = 0;  // next burst of the current round
  std::uint64_t round_ = 0;
  adversary::Plan plan_;
  bool armed_ = false;
  std::unique_ptr<net::Transport> udp_;
  std::unique_ptr<net::Socket> sock_;
  /// (colluder << 32 | target) -> pair key, derived on first use.
  std::unordered_map<std::uint64_t, util::Bytes> pair_keys_;
  std::vector<util::Bytes> payloads_;
  std::vector<util::ByteSpan> spans_;
};

}  // namespace drum::harness

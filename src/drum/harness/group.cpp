#include "drum/harness/group.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "drum/core/message.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/udp_transport.hpp"

namespace drum::harness {

namespace {

std::size_t share(double fraction, std::size_t n) {
  return static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(n)));
}

std::uint16_t wk_port(const core::Peer& p, adversary::Channel c) {
  if (c == adversary::Channel::kOffer) return p.wk_offer_port;
  return c == adversary::Channel::kPullRequest ? p.wk_pull_port
                                               : p.wk_pull_reply_port;
}

}  // namespace

Group::Group(const GroupConfig& cfg, util::Rng& rng) {
  const std::size_t n = cfg.n;
  if (n < 4) throw std::invalid_argument("group too small");
  const std::size_t m = share(cfg.malicious, n);
  if (m >= n) throw std::invalid_argument("no correct processes");
  if (!cfg.use_udp) {
    net::MemNetwork::Options opts;
    opts.loss = cfg.loss;
    opts.seed = rng.next();
    opts.latency_us = cfg.latency_us;
    mem_net_ = std::make_unique<net::MemNetwork>(opts);
  }

  const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");
  identities_.reserve(n);
  std::vector<core::Peer> dir(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    identities_.push_back(crypto::Identity::generate(rng));
    core::Peer& p = dir[id];
    p.id = id;
    p.host = cfg.use_udp ? udp_host : id;
    p.wk_pull_port = static_cast<std::uint16_t>(cfg.base_port + 3 * id);
    p.wk_offer_port = static_cast<std::uint16_t>(cfg.base_port + 3 * id + 1);
    p.wk_pull_reply_port =
        static_cast<std::uint16_t>(cfg.base_port + 3 * id + 2);
    p.sign_pub = identities_[id].sign_public();
    p.dh_pub = identities_[id].dh_public();
  }
  directory_ = std::make_shared<const std::vector<core::Peer>>(std::move(dir));

  for (std::uint32_t id = 0; id < m; ++id) insiders_.push_back(id);
  const std::size_t attacked = std::min(share(cfg.alpha, n), n - m);
  for (std::size_t i = 0; i < attacked; ++i) {
    victims_.push_back(static_cast<std::uint32_t>(m + i));
  }
}

core::NodeConfig Group::node_config(core::Variant variant, std::uint32_t id,
                                    std::size_t fanout) const {
  core::NodeConfig c = core::make_node_config(variant, id, fanout);
  const core::Peer& p = peer(id);
  c.wk_pull_port = p.wk_pull_port;
  c.wk_offer_port = p.wk_offer_port;
  c.wk_pull_reply_port = p.wk_pull_reply_port;
  return c;
}

Attacker::Attacker(const Group& group, core::Variant variant,
                   std::size_t fanout, std::string_view strategy,
                   const adversary::Params& params, std::uint64_t seed,
                   std::size_t bursts_per_round)
    : group_(group),
      proto_(core::make_node_config(variant, 0, fanout)),
      strategy_(adversary::make(strategy, params)),
      // The golden-ratio offset keeps this stream apart from the harness's
      // own stream of the same seed.
      rng_(seed ^ 0x9E3779B97F4A7C15ULL),
      bursts_(std::max<std::size_t>(1, bursts_per_round)) {
  if (group_.victims().empty() ||
      (params.x <= 0 && group_.insiders().empty())) {
    return;
  }
  plan_round({});
  armed_ = !plan_.floods.empty();
  if (armed_ && group_.mem_net() == nullptr) {
    udp_ = std::make_unique<net::UdpTransport>();
    sock_ = udp_->bind(0).take();
    if (!sock_) throw std::runtime_error("attacker socket bind failed");
  }
}

void Attacker::plan_round(std::span<const float> usefulness) {
  adversary::RoundView view;
  view.round = round_++;
  view.n = group_.size();
  view.attacked = group_.victims();
  view.colluders = group_.insiders();
  view.offer_budget = proto_.offer_budget();
  view.pull_request_budget = proto_.pull_request_budget();
  view.push_channel = proto_.view_push() > 0;
  view.pull_channel = proto_.view_pull() > 0;
  view.reply_port_attackable = proto_.variant == core::Variant::kDrumWkPorts;
  view.usefulness = usefulness;
  plan_.clear();
  // plan_.view_capture stays the simulator's model: live, an eclipse is the
  // insiders themselves, directory members that never answer.
  strategy_->plan_round(view, rng_, plan_);
  burst_ = 0;
}

std::size_t Attacker::send_burst(std::span<const float> usefulness) {
  if (round_done()) plan_round(usefulness);
  const std::uint64_t b = burst_++;
  std::size_t sent = 0;
  for (const adversary::Flood& f : plan_.floods) {
    const std::uint64_t count =
        (b + 1) * f.count / bursts_ - b * f.count / bursts_;
    if (count == 0 || f.target >= group_.size()) continue;
    const core::Peer& p = group_.peer(f.target);
    const net::Address target{p.host, wk_port(p, f.channel)};
    payloads_.clear();
    for (std::uint64_t i = 0; i < count; ++i) payloads_.push_back(craft(f));
    if (net::MemNetwork* mem_net = group_.mem_net()) {
      for (const util::Bytes& payload : payloads_) {
        const net::Address spoofed{
            0xDEAD0000U | static_cast<std::uint32_t>(rng_.below(65536)),
            static_cast<std::uint16_t>(1024 + rng_.below(60000))};
        mem_net->send_raw(spoofed, target, util::ByteSpan(payload));
      }
    } else {
      spans_.assign(payloads_.begin(), payloads_.end());
      sock_->send_batch(target, spans_.data(), spans_.size());
    }
    sent += payloads_.size();
  }
  return sent;
}

util::Bytes Attacker::craft(const adversary::Flood& f) {
  const bool spoofed = f.claimed_sender == adversary::kSpoofed;
  const std::uint32_t sender =
      spoofed ? static_cast<std::uint32_t>(rng_.below(group_.size()))
              : f.claimed_sender;
  if (f.channel == adversary::Channel::kPullReply) {
    return core::encode(core::PullReply{sender, {}});
  }
  util::Bytes box;
  if (spoofed) {
    box.resize(crypto::kPortBoxOverhead + 2);
    for (auto& byte : box) byte = static_cast<std::uint8_t>(rng_.below(256));
  } else {
    auto [key, fresh] = pair_keys_.try_emplace(
        (static_cast<std::uint64_t>(sender) << 32) | f.target);
    if (fresh) {
      key->second = group_.identity(sender).derive_pair_key(
          group_.peer(f.target).dh_pub);
    }
    box = crypto::portbox_seal_port(key->second, 9, rng_);
  }
  if (f.channel == adversary::Channel::kOffer) {
    core::PushOffer offer;
    offer.sender = sender;
    offer.boxed_reply_port = std::move(box);
    return core::encode(offer);
  }
  core::PullRequest req;
  req.sender = sender;
  req.boxed_reply_port = std::move(box);
  return core::encode(req);
}

}  // namespace drum::harness

#include "drum/harness/swarm.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "drum/check/check.hpp"
#include "drum/core/message.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/udp_transport.hpp"

namespace drum::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double tv_to_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Swarm::Swarm(SwarmConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  check::reset_nonce_tracker();
  if (cfg_.n < 4) throw std::invalid_argument("swarm too small");
  if (cfg_.payload_size < 8) {
    throw std::invalid_argument("payload_size must fit the 8-byte timestamp");
  }

  if (!cfg_.use_udp) {
    net::MemNetwork::Options opts;
    opts.seed = rng_.next();
    // Real time, not virtual: datagrams become receivable immediately and
    // the readiness bridge wakes the loop; wall-clock scheduling supplies
    // the contention a virtual latency models in Cluster.
    opts.latency_us = 0;
    mem_net_ = std::make_unique<net::MemNetwork>(opts);
  }

  const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");
  std::vector<crypto::Identity> identities;
  identities.reserve(cfg_.n);
  directory_.resize(cfg_.n);
  for (std::uint32_t id = 0; id < cfg_.n; ++id) {
    identities.push_back(crypto::Identity::generate(rng_));
    core::Peer& p = directory_[id];
    p.id = id;
    p.host = cfg_.use_udp ? udp_host : id;
    p.wk_pull_port = static_cast<std::uint16_t>(cfg_.udp_base_port + 3 * id);
    p.wk_offer_port =
        static_cast<std::uint16_t>(cfg_.udp_base_port + 3 * id + 1);
    p.wk_pull_reply_port =
        static_cast<std::uint16_t>(cfg_.udp_base_port + 3 * id + 2);
    p.sign_pub = identities[id].sign_public();
    p.dh_pub = identities[id].dh_public();
  }

  // Colluding insiders occupy the tail ids: directory members with real
  // identities the attacker holds, but no live protocol node.
  auto n_colluders = static_cast<std::size_t>(
      cfg_.malicious * static_cast<double>(cfg_.n) + 0.5);
  n_colluders = std::min(n_colluders, cfg_.n / 2);
  const std::size_t n_live = cfg_.n - n_colluders;
  for (std::size_t i = n_live; i < cfg_.n; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    colluder_ids_.push_back(id);
    colluder_identities_.push_back(identities[id]);
  }

  auto n_attacked = static_cast<std::size_t>(
      cfg_.alpha * static_cast<double>(cfg_.n) + 0.5);
  n_attacked = std::min(n_attacked, n_live);
  const bool attack_on =
      n_attacked > 0 && (cfg_.x > 0 || n_colluders > 0);
  if (attack_on) {
    // The legacy x knob keeps its meaning for every strategy: fabricated
    // messages per victim per round.
    adversary::Params aparams = cfg_.attack_params;
    if (cfg_.x > 0) aparams.x = cfg_.x;
    adversary_ = adversary::make(cfg_.adversary, aparams);
    for (std::size_t i = 0; i < n_attacked; ++i) {
      victims_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  activity_ = std::vector<std::atomic<std::uint32_t>>(n_live);
  nodes_.reserve(n_live);
  // One immutable directory shared by every node (Node::PeerDirectory).
  // Passing the vector by value instead would hand each of n nodes its own
  // n-entry copy — O(n²) Peer storage, ~8 GB at 10k nodes.
  auto shared_dir =
      std::make_shared<const std::vector<core::Peer>>(directory_);
  for (std::uint32_t id = 0; id < n_live; ++id) {
    LiveNode live;
    live.id = id;
    live.transport = cfg_.use_udp
                         ? std::unique_ptr<net::Transport>(
                               std::make_unique<net::UdpTransport>(udp_host))
                         : mem_net_->transport(id);
    core::NodeConfig ncfg =
        core::make_node_config(cfg_.variant, id, cfg_.fanout);
    ncfg.wk_pull_port = directory_[id].wk_pull_port;
    ncfg.wk_offer_port = directory_[id].wk_offer_port;
    ncfg.wk_pull_reply_port = directory_[id].wk_pull_reply_port;
    ncfg.verify_signatures = cfg_.verify_signatures;
    ncfg.scoring = cfg_.scoring;
    live.node = std::make_unique<core::Node>(
        ncfg, identities[id], shared_dir, *live.transport, rng_.next(),
        [this, id](const core::Node::Delivery& d) { on_delivery(id, d); });
    // Pairwise keys are a join-time cost (the membership layer hands them
    // out in the paper's model); derive them here so the measured attack
    // window is not billed n-1 X25519 exchanges per node. Optional because
    // it is O(n²) across the group (see SwarmConfig::prewarm).
    if (cfg_.prewarm) live.node->prewarm_pair_keys();
    nodes_.push_back(std::move(live));
  }

  runtime::ReactorConfig rc;
  rc.round = cfg_.round;
  rc.jitter = cfg_.jitter;
  rc.shards = cfg_.shards;
  reactor_ = std::make_unique<runtime::ReactorRuntime>(rc);
  for (auto& live : nodes_) reactor_->add_node(*live.node, rng_.next());
}

Swarm::~Swarm() { stop(); }

void Swarm::on_delivery(std::uint32_t node_id,
                        const core::Node::Delivery& d) {
  delivered_.fetch_add(1, std::memory_order_relaxed);
  activity_[node_id].fetch_add(1, std::memory_order_relaxed);
  if (!measuring_.load(std::memory_order_relaxed)) return;
  if (d.msg.payload.size() < 8) return;
  const auto sent =
      static_cast<std::int64_t>(get_u64(d.msg.payload.data()));
  const std::int64_t lat = now_us() - sent;
  if (lat < 0) return;
  check::MutexLock lock(lat_mu_);
  latency_ms_.add(static_cast<double>(lat) / 1000.0);
}

void Swarm::start() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (started_) return;
  started_ = true;
  reactor_->start();
  if (!victims_.empty()) {
    attacker_stop_.store(false);
    attacker_ = std::thread([this] { attacker_main(); });
  }
}

void Swarm::stop() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (!started_) return;
  started_ = false;
  attacker_stop_.store(true);
  if (attacker_.joinable()) attacker_.join();
  reactor_->stop();
}

void Swarm::run_for(std::chrono::milliseconds d) {
  {
    check::MutexLock lifecycle(lifecycle_mu_);
    DRUM_REQUIRE(started_, "run_for before start()");
  }
  rusage ru0{};
  ::getrusage(RUSAGE_SELF, &ru0);
  const auto t0 = Clock::now();
  const auto end = t0 + d;
  measuring_.store(true);

  util::Bytes payload(cfg_.payload_size);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng_.below(256));
  const auto send_interval =
      std::chrono::duration_cast<Clock::duration>(cfg_.round) /
      static_cast<std::int64_t>(std::max<std::size_t>(1, cfg_.rate));
  auto next_send = t0;
  while (Clock::now() < end) {
    put_u64(payload.data(), static_cast<std::uint64_t>(now_us()));
    reactor_->multicast(0, util::ByteSpan(payload));
    next_send += send_interval;
    std::this_thread::sleep_until(std::min(next_send, end));
  }

  measuring_.store(false);
  rusage ru1{};
  ::getrusage(RUSAGE_SELF, &ru1);
  wall_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
  cpu_user_s_ += tv_to_s(ru1.ru_utime) - tv_to_s(ru0.ru_utime);
  cpu_sys_s_ += tv_to_s(ru1.ru_stime) - tv_to_s(ru0.ru_stime);
}

void Swarm::attacker_main() {
  // Thread-confined RNG; the golden-ratio offset decorrelates it from the
  // construction-time stream without reseeding the swarm.
  util::Rng arng(cfg_.seed ^ 0x9E3779B97F4A7C15ull);
  std::unique_ptr<net::Transport> tr;
  std::unique_ptr<net::Socket> sock;
  if (cfg_.use_udp) {
    tr = std::make_unique<net::UdpTransport>(net::parse_ipv4("127.0.0.1"));
    sock = tr->bind(0).take();
    if (!sock) return;
  }

  // Per-victim budgets and channel availability are protocol configuration —
  // public knowledge a real attacker has.
  const core::NodeConfig proto =
      core::make_node_config(cfg_.variant, 0, cfg_.fanout);

  const std::size_t n_live = nodes_.size();
  std::vector<float> usefulness(cfg_.n, 0.0F);
  std::vector<std::uint32_t> last_activity(n_live, 0);

  // Pairwise keys for insider frames, derived lazily per (colluder, victim)
  // from the colluder identities the attacker holds.
  std::unordered_map<std::uint64_t, util::Bytes> pair_keys;
  const auto first_colluder = static_cast<std::uint32_t>(n_live);
  auto insider_key = [&](std::uint32_t colluder,
                         std::uint32_t target) -> util::ByteSpan {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(colluder) << 32) | target;
    auto it = pair_keys.find(k);
    if (it == pair_keys.end()) {
      it = pair_keys
               .emplace(k, colluder_identities_[colluder - first_colluder]
                               .derive_pair_key(directory_[target].dh_pub))
               .first;
    }
    return util::ByteSpan(it->second);
  };

  auto port_for = [](const core::Peer& p, adversary::Channel c) {
    switch (c) {
      case adversary::Channel::kOffer:
        return p.wk_offer_port;
      case adversary::Channel::kPullRequest:
        return p.wk_pull_port;
      case adversary::Channel::kPullReply:
      default:
        return p.wk_pull_reply_port;
    }
  };

  // One fabricated datagram for a flood action. Spoofed frames carry garbage
  // boxes (off-path attacker, unattributable); insider frames are sealed
  // with the real pair key around a bogus reply port, so they authenticate —
  // and then black-hole whatever the victim sends back.
  auto craft = [&](const adversary::Flood& f) -> util::Bytes {
    const bool spoofed = f.claimed_sender == adversary::kSpoofed;
    const std::uint32_t sender =
        spoofed ? static_cast<std::uint32_t>(arng.below(cfg_.n))
                : f.claimed_sender;
    if (f.channel == adversary::Channel::kPullReply) {
      return core::encode(core::PullReply{sender, {}});
    }
    util::Bytes box;
    if (spoofed) {
      box.resize(crypto::kPortBoxOverhead + 2);
      for (auto& b : box) b = static_cast<std::uint8_t>(arng.below(256));
    } else {
      box = crypto::portbox_seal_port(insider_key(sender, f.target), 9, arng);
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
  };

  const auto bursts =
      std::max<std::size_t>(1, cfg_.attacker_bursts_per_round);
  const auto gap = std::chrono::duration_cast<Clock::duration>(cfg_.round) /
                   static_cast<std::int64_t>(bursts);

  adversary::Plan plan;
  std::vector<util::Bytes> payloads;
  std::vector<util::ByteSpan> spans;
  std::uint64_t round_no = 0;

  while (!attacker_stop_.load()) {
    // Usefulness = deliveries observed at each node since the last plan,
    // the coarse activity signal adaptive re-targeting keys on.
    for (std::size_t i = 0; i < n_live; ++i) {
      const std::uint32_t cur = activity_[i].load(std::memory_order_relaxed);
      usefulness[i] = static_cast<float>(cur - last_activity[i]);
      last_activity[i] = cur;
    }

    adversary::RoundView view;
    view.round = round_no++;
    view.n = cfg_.n;
    view.attacked = victims_;
    view.colluders = colluder_ids_;
    view.offer_budget = proto.offer_budget();
    view.pull_request_budget = proto.pull_request_budget();
    view.push_channel = proto.view_push() > 0;
    view.pull_channel = proto.view_pull() > 0;
    view.reply_port_attackable = cfg_.variant == core::Variant::kDrumWkPorts;
    view.usefulness = usefulness;
    plan.clear();
    adversary_->plan_round(view, arng, plan);
    // plan.view_capture is the sim's membership model; the live realization
    // of an eclipse is the colluders themselves — authenticated directory
    // members that never answer, black-holing every pull aimed at them.

    for (std::size_t b = 0; b < bursts && !attacker_stop_.load(); ++b) {
      const auto burst_start = Clock::now();
      for (const auto& f : plan.floods) {
        std::size_t count = f.count / bursts;
        if (b < f.count % bursts) ++count;
        if (count == 0 || f.target >= directory_.size()) continue;
        const core::Peer& p = directory_[f.target];
        const net::Address target{p.host, port_for(p, f.channel)};
        payloads.clear();
        for (std::size_t i = 0; i < count; ++i) {
          payloads.push_back(craft(f));
        }
        if (mem_net_) {
          for (const auto& pl : payloads) {
            net::Address src{
                0xDEAD0000u | static_cast<std::uint32_t>(arng.below(65536)),
                static_cast<std::uint16_t>(1024 + arng.below(60000))};
            mem_net_->send_raw(src, target, util::ByteSpan(pl));
          }
        } else {
          spans.clear();
          spans.reserve(payloads.size());
          for (const auto& pl : payloads) spans.emplace_back(pl);
          sock->send_batch(target, spans.data(), spans.size());
        }
        attack_sent_.fetch_add(payloads.size(), std::memory_order_relaxed);
      }
      std::this_thread::sleep_until(burst_start + gap);
    }
  }
}

SwarmReport Swarm::report() const {
  SwarmReport r;
  r.nodes = nodes_.size();
  r.shards = reactor_->shard_count();
  r.wall_s = wall_s_;
  r.cpu_user_s = cpu_user_s_;
  r.cpu_sys_s = cpu_sys_s_;
  obs::MetricsRegistry merged;
  for (const auto& live : nodes_) merged.merge(live.node->registry());
  r.rounds = merged.counter_value("runner.ticks");
  r.polls = merged.counter_value("runner.polls");
  r.delivered = merged.counter_value("node.delivered");
  r.attack_datagrams = attack_sent_.load();
  r.ingress_datagrams = merged.counter_value("node.datagrams_read") +
                        merged.counter_value("node.flushed_unread") +
                        merged.counter_value("score.greylist_drops");
  r.colluders = colluder_ids_.size();
  if (cfg_.scoring.enabled) {
    r.greylist_drops = merged.counter_value("score.greylist_drops");
    for (const auto& live : nodes_) {
      core::PeerScoreTable& t = live.node->score_table();
      r.greylist_entries += t.greylist_entries();
      r.greylisted_at_end += t.currently_greylisted();
    }
  }
  {
    check::MutexLock lock(lat_mu_);
    r.latency_samples = latency_ms_.count();
    r.latency_ms_mean = latency_ms_.mean();
    r.latency_ms_p50 = latency_ms_.percentile(0.50);
    r.latency_ms_p90 = latency_ms_.percentile(0.90);
    r.latency_ms_p99 = latency_ms_.percentile(0.99);
  }
  r.loop_metrics_json = reactor_->loop_registry().to_json();
  return r;
}

}  // namespace drum::harness

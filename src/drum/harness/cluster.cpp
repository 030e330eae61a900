#include "drum/harness/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "drum/check/check.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/udp_transport.hpp"

namespace drum::harness {

double ClusterMetrics::mean_throughput_msgs_per_sec() const {
  if (nodes.empty() || window_us <= 0) return 0.0;
  double total = 0;
  for (const auto& n : nodes) total += static_cast<double>(n.delivered);
  double per_node = total / static_cast<double>(nodes.size());
  return per_node * 1e6 / static_cast<double>(window_us);
}

double ClusterMetrics::mean_latency_ms() const {
  util::RunningStats all;
  for (const auto& n : nodes) all.merge(n.latency_us);
  return all.mean() / 1000.0;
}

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  // A cluster is a fresh simulated world: open a new portbox nonce-tracker
  // window so deliberately re-seeded worlds (variant sweeps, re-runs) are
  // not mistaken for keystream reuse within one execution.
  check::reset_nonce_tracker();
  const std::size_t n = cfg_.n;
  if (n < 4) throw std::invalid_argument("cluster too small");
  n_malicious_ = static_cast<std::size_t>(
      std::llround(cfg_.malicious_fraction * static_cast<double>(n)));
  if (n_malicious_ >= n) throw std::invalid_argument("no correct processes");

  if (!cfg_.use_udp) {
    net::MemNetwork::Options opts;
    opts.loss = cfg_.loss;
    opts.seed = rng_.next();
    opts.latency_us = cfg_.latency_us;
    mem_net_ = std::make_unique<net::MemNetwork>(opts);
    mem_net_->set_registry(&net_registry_);
  }

  // Build identities + directory. Ids [0, n_malicious) are the adversary's
  // members: present in the directory (so correct nodes waste fan-out on
  // them) but never instantiated.
  std::vector<crypto::Identity> identities;
  identities.reserve(n);
  directory_.resize(n);
  const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");
  for (std::uint32_t id = 0; id < n; ++id) {
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

  // Attacked set: round(alpha*n) correct members starting at the first
  // correct id; the source is the first correct process (attacked whenever
  // the attack is on), as in the paper.
  auto n_attacked = static_cast<std::size_t>(
      std::llround(cfg_.alpha * static_cast<double>(n)));
  n_attacked = std::min(n_attacked, n - n_malicious_);
  const bool attack_on = cfg_.x > 0 && n_attacked > 0;
  source_ = static_cast<std::uint32_t>(n_malicious_);
  if (attack_on) {
    for (std::size_t i = 0; i < n_attacked; ++i) {
      victims_.push_back(static_cast<std::uint32_t>(n_malicious_ + i));
    }
  }

  // Instantiate the correct nodes.
  for (std::uint32_t id = static_cast<std::uint32_t>(n_malicious_); id < n;
       ++id) {
    LiveNode live;
    live.id = id;
    if (cfg_.use_udp) {
      // Real sockets: all nodes' UDP counters land in the shared network
      // registry (the harness polls every node from one thread).
      auto udp = std::make_unique<net::UdpTransport>(udp_host);
      udp->set_registry(&net_registry_);
      live.transport = std::move(udp);
    } else {
      live.transport = mem_net_->transport(id);
    }
    core::NodeConfig ncfg = core::make_node_config(cfg_.variant, id,
                                                   cfg_.fanout);
    ncfg.wk_pull_port = directory_[id].wk_pull_port;
    ncfg.wk_offer_port = directory_[id].wk_offer_port;
    ncfg.wk_pull_reply_port = directory_[id].wk_pull_reply_port;
    ncfg.verify_signatures = cfg_.verify_signatures;
    ncfg.discard_unread = cfg_.discard_unread;
    live.node = std::make_unique<core::Node>(
        ncfg, identities[id], directory_, *live.transport, rng_.next(),
        [this, id](const core::Node::Delivery& d) { on_delivery(id, d); });
    if (cfg_.trace_capacity > 0) {
      live.trace = std::make_unique<obs::TraceRing>(cfg_.trace_capacity);
      live.node->set_trace(live.trace.get());
    }
    live.next_tick_us = jittered_round(rng_);
    node_index_[id] = nodes_.size();
    nodes_.push_back(std::move(live));
  }

  // 99% of the correct processes other than the source.
  completion_threshold_ = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(nodes_.size() - 1)));
  next_burst_us_ = cfg_.round_us / static_cast<std::int64_t>(
                                       std::max<std::size_t>(
                                           1, cfg_.attacker_bursts_per_round));
  next_send_us_ = 0;

  check_invariants();
}

void Cluster::check_invariants() const {
#if DRUM_CHECKED
  DRUM_INVARIANT(node_index_.size() == nodes_.size(),
                 "node_index_ must cover every live node exactly once");
  for (const auto& [id, idx] : node_index_) {
    DRUM_INVARIANT(idx < nodes_.size() && nodes_[idx].id == id,
                   "node_index_ entry points at the wrong node: id ", id);
    DRUM_INVARIANT(nodes_[idx].node != nullptr && nodes_[idx].transport,
                   "live node missing its node or transport: id ", id);
    DRUM_INVARIANT(id >= n_malicious_,
                   "a malicious member must never be instantiated: id ", id);
  }
  DRUM_INVARIANT(node_index_.contains(source_),
                 "source must be a live correct node");
  for (auto v : victims_) {
    DRUM_INVARIANT(node_index_.contains(v),
                   "victim must be a live correct node: id ", v);
  }
  for (const auto& live : nodes_) {
    DRUM_INVARIANT(live.next_tick_us > now_us_,
                   "round tick armed in the past: node ", live.id);
  }
  for (const auto& [id, t] : tracked_) {
    DRUM_INVARIANT(t.deliveries <= nodes_.size() - 1,
                   "more deliveries than receivers for source ", id.source,
                   " seqno ", id.seqno, ": ", t.deliveries);
  }
#endif
}

Cluster::~Cluster() = default;

bool Cluster::is_attacked(std::uint32_t id) const {
  return std::find(victims_.begin(), victims_.end(), id) != victims_.end();
}

std::int64_t Cluster::jittered_round(util::Rng& rng) const {
  double jitter = 1.0 + cfg_.round_jitter * (2.0 * rng.uniform() - 1.0);
  return static_cast<std::int64_t>(static_cast<double>(cfg_.round_us) *
                                   jitter);
}

void Cluster::fire_attacker_burst() {
  if (victims_.empty() || cfg_.x <= 0) return;
  // Each burst delivers x / bursts_per_round fabricated datagrams per
  // victim, split across the variant's attackable well-known ports.
  const double per_burst =
      cfg_.x / static_cast<double>(cfg_.attacker_bursts_per_round);
  for (auto victim : victims_) {
    const core::Peer& p = directory_[victim];
    // Integerize stochastically so fractional rates are honored on average.
    double want = per_burst;
    auto count = static_cast<std::size_t>(want);
    if (rng_.chance(want - static_cast<double>(count))) ++count;
    for (std::size_t i = 0; i < count; ++i) {
      // Craft a type-correct control message with a garbage box so the
      // victim pays full parse + box-open cost.
      util::Bytes garbage_box(crypto::kPortBoxOverhead + 2);
      for (auto& b : garbage_box) {
        b = static_cast<std::uint8_t>(rng_.below(256));
      }
      net::Address target;
      util::Bytes payload;
      const std::uint64_t k = attacker_seq_++;
      auto fake_sender = static_cast<std::uint32_t>(rng_.below(cfg_.n));
      auto fake_offer = [&] {
        core::PushOffer offer;
        offer.sender = fake_sender;
        offer.boxed_reply_port = garbage_box;
        return core::encode(offer);
      };
      auto fake_pull = [&] {
        core::PullRequest req;
        req.sender = fake_sender;
        req.boxed_reply_port = garbage_box;
        return core::encode(req);
      };
      switch (cfg_.variant) {
        case core::Variant::kPush:
          target = {p.host, p.wk_offer_port};
          payload = fake_offer();
          break;
        case core::Variant::kPull:
          target = {p.host, p.wk_pull_port};
          payload = fake_pull();
          break;
        case core::Variant::kDrumWkPorts:
          // x/2 push, x/4 pull-request, x/4 pull-reply port (paper §9).
          if (k % 4 < 2) {
            target = {p.host, p.wk_offer_port};
            payload = fake_offer();
          } else if (k % 4 == 2) {
            target = {p.host, p.wk_pull_port};
            payload = fake_pull();
          } else {
            target = {p.host, p.wk_pull_reply_port};
            payload = core::encode(core::PullReply{fake_sender, {}});
          }
          break;
        case core::Variant::kDrum:
        case core::Variant::kDrumSharedBounds:
        default:
          if (k % 2 == 0) {
            target = {p.host, p.wk_offer_port};
            payload = fake_offer();
          } else {
            target = {p.host, p.wk_pull_port};
            payload = fake_pull();
          }
          break;
      }
      if (mem_net_) {
        // Spoofed source host: not a group member.
        net::Address spoofed{0xDEAD0000u | static_cast<std::uint32_t>(
                                               rng_.below(65536)),
                             static_cast<std::uint16_t>(
                                 1024 + rng_.below(60000))};
        mem_net_->send_raw(spoofed, target, util::ByteSpan(payload));
      } else {
        // UDP mode: a real attacker socket, bound on the first burst.
        if (!attacker_sock_) {
          attacker_transport_ = std::make_unique<net::UdpTransport>(
              net::parse_ipv4("127.0.0.1"));
          attacker_sock_ = attacker_transport_->bind(0).take();
        }
        attacker_sock_->send(target, util::ByteSpan(payload));
      }
    }
  }
}

core::MessageId Cluster::multicast_from_source(util::ByteSpan payload) {
  auto& src = nodes_[node_index_.at(source_)];
  core::MessageId id = src.node->multicast(payload);
  TrackedMessage t;
  t.sent_us = now_us_;
  t.in_window = measuring_;
  tracked_.emplace(id, t);
  if (measuring_) ++metrics_.messages_sent;
  return id;
}

void Cluster::fire_workload() {
  util::Bytes payload(cfg_.payload_size);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng_.below(256));
  multicast_from_source(util::ByteSpan(payload));
}

void Cluster::on_delivery(std::uint32_t node_id,
                          const core::Node::Delivery& d) {
  auto it = tracked_.find(d.msg.id);
  if (it == tracked_.end()) return;
  TrackedMessage& t = it->second;
  ++t.deliveries;
  t.max_hops = std::max(t.max_hops, d.hops);
  if (!t.completed && t.deliveries >= completion_threshold_) {
    t.completed = true;
    if (t.in_window) {
      ++metrics_.messages_completed;
      metrics_.propagation_rounds.add(static_cast<double>(t.max_hops));
      metrics_.propagation_us.add(static_cast<double>(now_us_ - t.sent_us));
    }
  }
  if (measuring_ && node_id != source_) {
    auto idx = node_index_.at(node_id) -
               (node_index_.at(node_id) > node_index_.at(source_) ? 1 : 0);
    auto& per = metrics_.nodes[idx];
    ++per.delivered;
    per.latency_us.add(static_cast<double>(now_us_ - t.sent_us));
    per.hops.add(static_cast<double>(d.hops));
  }
}

void Cluster::begin_measurement() {
  metrics_ = ClusterMetrics{};
  metrics_.nodes.clear();
  for (const auto& live : nodes_) {
    if (live.id == source_) continue;
    ClusterMetrics::PerNode per;
    per.id = live.id;
    per.attacked = is_attacked(live.id);
    metrics_.nodes.push_back(per);
  }
  measuring_ = true;
  measure_start_us_ = now_us_;
  series_ = obs::TimeSeries(
      {"round", "t_us", "delivered", "flushed_unread", "net_dropped"});
  next_sample_us_ = now_us_ + cfg_.round_us;
}

void Cluster::end_measurement() {
  measuring_ = false;
  metrics_.window_us = now_us_ - measure_start_us_;
}

void Cluster::run_for_us(std::int64_t duration_us, bool workload) {
  const std::int64_t end = now_us_ + duration_us;
  const std::int64_t send_interval =
      cfg_.rate > 0 ? cfg_.round_us / static_cast<std::int64_t>(cfg_.rate)
                    : 0;
  const std::int64_t burst_interval =
      cfg_.round_us /
      static_cast<std::int64_t>(std::max<std::size_t>(
          1, cfg_.attacker_bursts_per_round));
  if (workload && next_send_us_ < now_us_) next_send_us_ = now_us_;
  if (next_burst_us_ < now_us_) next_burst_us_ = now_us_;

  while (now_us_ < end) {
    // Next event time.
    std::int64_t next = end;
    for (const auto& live : nodes_) {
      next = std::min(next, live.next_tick_us);
    }
    if (!victims_.empty() && cfg_.x > 0) {
      next = std::min(next, next_burst_us_);
    }
    if (workload && send_interval > 0) next = std::min(next, next_send_us_);
    if (measuring_) next = std::min(next, next_sample_us_);
    now_us_ = std::max(now_us_, next);
    if (mem_net_) mem_net_->advance_to(now_us_);

    for (auto& live : nodes_) {
      if (live.next_tick_us <= now_us_) {
        live.node->on_round();
        live.next_tick_us = now_us_ + jittered_round(rng_);
      }
    }
    if (!victims_.empty() && cfg_.x > 0 && next_burst_us_ <= now_us_) {
      fire_attacker_burst();
      next_burst_us_ = now_us_ + burst_interval;
    }
    if (workload && send_interval > 0 && next_send_us_ <= now_us_) {
      fire_workload();
      next_send_us_ = now_us_ + send_interval;
    }
    // One ingress batch across the whole cluster per sweep: every node's
    // backlog drains first, then a single wide crypto pass verifies all of
    // it, then each node ingests its verified frames (DESIGN.md §12).
    {
      core::ingress::IngressBatch batch;
      for (auto& live : nodes_) live.node->drain_ingress(batch);
      batch.dispatch();
    }
    maybe_sample_series();
  }
  check_invariants();
}

void Cluster::maybe_sample_series() {
  if (!measuring_ || now_us_ < next_sample_us_) return;
  std::uint64_t delivered = 0;
  for (const auto& per : metrics_.nodes) delivered += per.delivered;
  std::uint64_t flushed = 0;
  for (const auto& live : nodes_) {
    flushed += live.node->registry().counter_value("node.flushed_unread");
  }
  const std::uint64_t net_dropped = mem_net_ ? mem_net_->dropped() : 0;
  series_.add_row({static_cast<double>(series_.rows() + 1),
                   static_cast<double>(now_us_ - measure_start_us_),
                   static_cast<double>(delivered),
                   static_cast<double>(flushed),
                   static_cast<double>(net_dropped)});
  next_sample_us_ += cfg_.round_us;
}

// All stat summaries are assembled from the nodes' metric registries — the
// single bookkeeping path. Registry merge is the aggregation primitive.
obs::MetricsRegistry Cluster::merged_registry(NodeSet set) const {
  obs::MetricsRegistry merged;
  for (const auto& live : nodes_) {
    if (set == NodeSet::kAttacked && !is_attacked(live.id)) continue;
    if (set == NodeSet::kNonAttacked && is_attacked(live.id)) continue;
    merged.merge(live.node->registry());
  }
  return merged;
}

std::string Cluster::metrics_json() const {
  auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  auto dbl = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };

  std::string out = "{\n  \"config\": {";
  out += "\"variant\": \"" +
         obs::json_escape(core::variant_name(cfg_.variant)) + "\"";
  out += ", \"n\": " + u64(cfg_.n);
  out += ", \"malicious_fraction\": " + dbl(cfg_.malicious_fraction);
  out += ", \"alpha\": " + dbl(cfg_.alpha);
  out += ", \"x\": " + dbl(cfg_.x);
  out += ", \"fanout\": " + u64(cfg_.fanout);
  out += ", \"seed\": " + u64(cfg_.seed);
  out += ", \"round_us\": " + std::to_string(cfg_.round_us);
  out += ", \"use_udp\": " + std::string(cfg_.use_udp ? "true" : "false");
  out += "},\n";
  out += "  \"window_us\": " + std::to_string(metrics_.window_us) + ",\n";
  out += "  \"nodes\": {\n";
  out += "    \"all\": " + merged_registry(NodeSet::kAll).to_json() + ",\n";
  out += "    \"attacked\": " + merged_registry(NodeSet::kAttacked).to_json() +
         ",\n";
  out += "    \"non_attacked\": " +
         merged_registry(NodeSet::kNonAttacked).to_json() + "\n";
  out += "  },\n";
  out += "  \"net\": " + net_registry_.to_json() + ",\n";
  out += "  \"per_node\": [";
  bool first = true;
  static constexpr const char* kNodeCounters[] = {
      "rounds",          "delivered",
      "duplicates",      "datagrams_read",
      "flushed_unread",  "decode_errors",
      "box_failures",    "sig_failures",
      "unknown_sender",  "certs_admitted",
      "pull_requests_served", "push_offers_answered",
      "push_replies_acted"};
  for (const auto& live : nodes_) {
    out += first ? "\n" : ",\n";
    first = false;
    const obs::MetricsRegistry& reg = live.node->registry();
    out += "    {\"id\": " + std::to_string(live.id);
    out += ", \"attacked\": " +
           std::string(is_attacked(live.id) ? "true" : "false");
    for (const char* name : kNodeCounters) {
      out += ", \"" + std::string(name) +
             "\": " + u64(reg.counter_value(std::string("node.") + name));
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Cluster::write_metrics_json(const std::string& path) const {
  return obs::write_text_file(path, metrics_json());
}

}  // namespace drum::harness

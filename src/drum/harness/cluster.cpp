#include "drum/harness/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "drum/check/check.hpp"
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

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      group_(GroupConfig{.n = cfg_.n,
                         .malicious = cfg_.malicious_fraction,
                         .alpha = cfg_.alpha,
                         .use_udp = cfg_.use_udp,
                         .loss = cfg_.loss,
                         .latency_us = cfg_.latency_us,
                         .base_port = cfg_.udp_base_port},
             rng_),
      attacker_(group_, cfg_.variant, cfg_.fanout, "flood",
                adversary::Params{.x = cfg_.x}, cfg_.seed,
                cfg_.attacker_bursts_per_round) {
  // A cluster is a fresh simulated world: open a new portbox nonce-tracker
  // window so deliberately re-seeded worlds (variant sweeps, re-runs) are
  // not mistaken for keystream reuse within one execution.
  check::reset_nonce_tracker();
  net::MemNetwork* mem_net = group_.mem_net();
  if (mem_net != nullptr) mem_net->set_registry(&net_registry_);
  for (std::uint32_t id = group_.first_live(); id < group_.size(); ++id) {
    LiveNode live;
    live.id = id;
    if (cfg_.use_udp) {
      // Real sockets: all nodes' UDP counters land in the shared network
      // registry (the harness polls every node from one thread).
      auto udp = std::make_unique<net::UdpTransport>();
      udp->set_registry(&net_registry_);
      live.transport = std::move(udp);
    } else {
      live.transport = mem_net->transport(id);
    }
    core::NodeConfig ncfg = group_.node_config(cfg_.variant, id, cfg_.fanout);
    ncfg.verify_signatures = cfg_.verify_signatures;
    ncfg.discard_unread = cfg_.discard_unread;
    live.node = std::make_unique<core::Node>(
        ncfg, group_.identity(id), group_.directory(), *live.transport,
        rng_.next(),
        [this, id](const core::Node::Delivery& d) { on_delivery(id, d); });
    if (cfg_.trace_capacity > 0) {
      live.trace = std::make_unique<obs::TraceRing>(cfg_.trace_capacity);
      live.node->set_trace(live.trace.get());
    }
    live.next_tick_us = jittered_round(rng_);
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
  DRUM_INVARIANT(nodes_.size() == group_.size() - group_.first_live(),
                 "every live id needs exactly one node");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const LiveNode& live = nodes_[i];
    DRUM_INVARIANT(live.id == source_id() + i,
                   "live node out of id order: index ", i, " id ", live.id);
    DRUM_INVARIANT(live.node != nullptr && live.transport,
                   "live node missing its node or transport: id ", live.id);
    DRUM_INVARIANT(live.next_tick_us > now_us_,
                   "round tick armed in the past: node ", live.id);
  }
  for (auto v : group_.victims()) {
    DRUM_INVARIANT(v >= source_id() && v < group_.size(),
                   "victim must be a live correct node: id ", v);
  }
  for (const auto& [id, t] : tracked_) {
    DRUM_INVARIANT(t.deliveries <= nodes_.size() - 1,
                   "more deliveries than receivers for source ", id.source,
                   " seqno ", id.seqno, ": ", t.deliveries);
  }
#endif
}

Cluster::~Cluster() = default;

std::int64_t Cluster::jittered_round(util::Rng& rng) const {
  double jitter = 1.0 + cfg_.round_jitter * (2.0 * rng.uniform() - 1.0);
  return static_cast<std::int64_t>(static_cast<double>(cfg_.round_us) *
                                   jitter);
}

core::MessageId Cluster::multicast_from_source(util::ByteSpan payload) {
  core::MessageId id = nodes_.front().node->multicast(payload);
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
  if (measuring_ && node_id != source_id()) {
    // metrics_.nodes lists the live nodes after the source, in id order.
    auto& per = metrics_.nodes[node_id - source_id() - 1];
    ++per.delivered;
    per.latency_us.add(static_cast<double>(now_us_ - t.sent_us));
    per.hops.add(static_cast<double>(d.hops));
  }
}

void Cluster::begin_measurement() {
  metrics_ = ClusterMetrics{};
  for (const auto& live : nodes_) {
    if (live.id == source_id()) continue;
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
    if (attacker_.armed()) next = std::min(next, next_burst_us_);
    if (workload && send_interval > 0) next = std::min(next, next_send_us_);
    if (measuring_) next = std::min(next, next_sample_us_);
    now_us_ = std::max(now_us_, next);
    if (group_.mem_net() != nullptr) group_.mem_net()->advance_to(now_us_);

    for (auto& live : nodes_) {
      if (live.next_tick_us <= now_us_) {
        live.node->on_round();
        live.next_tick_us = now_us_ + jittered_round(rng_);
      }
    }
    if (attacker_.armed() && next_burst_us_ <= now_us_) {
      attacker_.send_burst({});
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
  const std::uint64_t net_dropped =
      group_.mem_net() != nullptr ? group_.mem_net()->dropped() : 0;
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

}  // namespace drum::harness

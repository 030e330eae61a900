#include "drum/harness/swarm.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "drum/check/check.hpp"
#include "drum/net/udp_transport.hpp"

namespace drum::harness {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double tv_to_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Swarm::Swarm(SwarmConfig cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      // Latency 0: wall-clock scheduling supplies the contention a virtual
      // latency models in Cluster.
      group_(GroupConfig{.n = cfg_.n,
                         .malicious = cfg_.malicious,
                         .alpha = cfg_.alpha,
                         .use_udp = cfg_.use_udp,
                         .base_port = cfg_.udp_base_port},
             rng_),
      attacker_(group_, cfg_.variant, cfg_.fanout, cfg_.adversary,
                cfg_.attack_params, cfg_.seed,
                cfg_.attacker_bursts_per_round) {
  check::reset_nonce_tracker();
  if (cfg_.payload_size < 8) {
    throw std::invalid_argument("payload_size must fit the 8-byte timestamp");
  }

  const std::size_t n_live = group_.size() - group_.first_live();
  activity_ = std::vector<std::atomic<std::uint32_t>>(n_live);
  nodes_.reserve(n_live);
  for (std::size_t i = 0; i < n_live; ++i) {
    const auto id = static_cast<std::uint32_t>(group_.first_live() + i);
    LiveNode live;
    live.transport = cfg_.use_udp
                         ? std::unique_ptr<net::Transport>(
                               std::make_unique<net::UdpTransport>())
                         : group_.mem_net()->transport(id);
    core::NodeConfig ncfg = group_.node_config(cfg_.variant, id, cfg_.fanout);
    ncfg.verify_signatures = cfg_.verify_signatures;
    ncfg.scoring = cfg_.scoring;
    // One immutable directory shared by every node (Node::PeerDirectory):
    // a directory per node would be O(n²) Peer storage, ~8 GB at 10k nodes.
    live.node = std::make_unique<core::Node>(
        ncfg, group_.identity(id), group_.directory(), *live.transport,
        rng_.next(),
        [this, i](const core::Node::Delivery& d) { on_delivery(i, d); });
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

void Swarm::on_delivery(std::size_t index, const core::Node::Delivery& d) {
  delivered_.fetch_add(1, std::memory_order_relaxed);
  activity_[index].fetch_add(1, std::memory_order_relaxed);
  if (!measuring_.load(std::memory_order_relaxed)) return;
  std::int64_t sent = 0;
  if (d.msg.payload.size() < sizeof sent) return;
  std::memcpy(&sent, d.msg.payload.data(), sizeof sent);
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
  if (attacker_.armed()) {
    attacker_stop_.store(false);
    attacker_thread_ = std::thread([this] { attacker_main(); });
  }
}

void Swarm::stop() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (!started_) return;
  started_ = false;
  attacker_stop_.store(true);
  if (attacker_thread_.joinable()) attacker_thread_.join();
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
    // The stamp never leaves this process, so host byte order will do.
    const std::int64_t sent = now_us();
    std::memcpy(payload.data(), &sent, sizeof sent);
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
  const auto gap = std::chrono::duration_cast<Clock::duration>(cfg_.round) /
                   static_cast<std::int64_t>(std::max<std::size_t>(
                       1, cfg_.attacker_bursts_per_round));
  std::vector<float> usefulness(group_.size(), 0.0F);
  std::vector<std::uint32_t> last_activity(nodes_.size(), 0);
  while (!attacker_stop_.load()) {
    const auto burst_start = Clock::now();
    if (attacker_.round_done()) {
      // Usefulness = deliveries observed at each node since the last plan,
      // the coarse activity signal adaptive re-targeting keys on.
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const std::uint32_t cur = activity_[i].load(std::memory_order_relaxed);
        usefulness[group_.first_live() + i] =
            static_cast<float>(cur - last_activity[i]);
        last_activity[i] = cur;
      }
    }
    attack_sent_.fetch_add(attacker_.send_burst(usefulness),
                           std::memory_order_relaxed);
    std::this_thread::sleep_until(burst_start + gap);
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
  r.colluders = group_.insiders().size();
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

#include "drum/runtime/reactor.hpp"

#include <algorithm>
#include <stdexcept>

#include "drum/check/check.hpp"

namespace drum::runtime {

using Clock = net::EventLoop::Clock;
using std::chrono::duration_cast;
using std::chrono::microseconds;

namespace {

/// Nodes per drain/verify/ingest pass: enough frames to fill the Ed25519
/// batch ladder, few enough that a flood against one shard still bounds
/// per-pass latency and batch memory.
constexpr std::size_t kShardBatch = 64;

}  // namespace

ReactorRuntime::ReactorRuntime(ReactorConfig cfg) : cfg_(cfg) {
  DRUM_REQUIRE(cfg.round.count() > 0, "round duration must be positive");
  DRUM_REQUIRE(cfg.jitter >= 0.0 && cfg.jitter < 1.0,
               "jitter must be in [0, 1): ", cfg.jitter);
  // Checked in every build, not only DRUM_CHECKED ones: without a shard
  // there is nothing to run the nodes on.
  if (cfg.shards == 0) {
    throw std::invalid_argument("ReactorConfig::shards must be at least 1");
  }
  if (cfg.workers != 0) {
    throw std::invalid_argument(
        "ReactorConfig::workers must be 0: the runtime has no worker pool");
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard* sh = shards_.back().get();
    sh->loop.set_cycle_callback([this, sh] { shard_cycle(*sh); });
  }
}

ReactorRuntime::~ReactorRuntime() { stop(); }

ReactorRuntime::NodeId ReactorRuntime::add_node(core::Node& node,
                                                std::uint64_t seed) {
  DRUM_REQUIRE(!running_.load(), "add_node while the reactor is running");
  nodes_.emplace_back(node, seed, nodes_.size() % cfg_.shards);
  NodeState& st = nodes_.back();
  if (cfg_.instrument) {
    // Uncontended (the runtime is stopped), but the telemetry fields are
    // guarded by st.mu and the analysis rightly demands the lock.
    check::MutexLock lock(st.mu);
    auto& reg = node.registry();
    st.m_ticks = &reg.counter("runner.ticks");
    st.m_polls = &reg.counter("runner.polls");
    st.m_poll_us = &reg.histogram("runner.poll_us");
    st.m_tick_interval_us = &reg.histogram("runner.tick_interval_us");
    st.m_dispatch_us = &reg.histogram("reactor.dispatch_us");
  }
  return nodes_.size() - 1;
}

Clock::duration ReactorRuntime::jittered_round(NodeState& st) {
  double j = 1.0 + cfg_.jitter * (2.0 * st.rng.uniform() - 1.0);
  return duration_cast<Clock::duration>(cfg_.round * j);
}

void ReactorRuntime::install_hooks(NodeState& st) {
  NodeState* stp = &st;
  Shard* sh = shards_[st.shard].get();
  check::MutexLock node_lock(st.mu);
  // Replays watched sockets immediately and fires again on every per-round
  // random-port rotation and every budget-spent unwatch / round-start
  // rewatch — always under st.mu, on the home shard thread or a
  // with_node() caller's. Calls for one socket alternate, so a second watch
  // or an unknown unwatch is a bookkeeping slip.
  st.node->set_socket_hook([this, stp, sh](net::Socket& sock, bool watch) {
    if (watch) {
      // Epoll for an fd, the loop's bridge for a MemSocket: either way the
      // callback runs on the home shard thread, and registration queues a
      // catch-up dispatch for datagrams that arrived before it.
      auto id = sh->loop.add_socket(sock, [this, stp] {
        stp->ready = true;
        dispatch(*stp);
      });
      check::MutexLock lock(sh->sources_mu);
      [[maybe_unused]] const bool fresh =
          sh->sources.emplace(&sock, id).second;
      DRUM_ASSERT(fresh, "socket watched twice");
    } else {
      net::EventLoop::SourceId id = 0;
      {
        check::MutexLock lock(sh->sources_mu);
        auto it = sh->sources.find(&sock);
        DRUM_ASSERT(it != sh->sources.end(), "unwatch of a socket the shard does not watch");
        if (it == sh->sources.end()) return;
        id = it->second;
        sh->sources.erase(it);
      }
      sh->loop.remove_socket(id);
    }
  });
}

void ReactorRuntime::arm_first_tick(NodeState& st) {
  const auto now = Clock::now();
  {
    check::MutexLock lock(st.mu);
    st.last_tick = now;
  }
  st.next_deadline = now + jittered_round(st);
  st.timer_id = shards_[st.shard]->loop.add_timer(
      st.next_deadline, [this, &st] { on_round_timer(st); });
}

void ReactorRuntime::on_round_timer(NodeState& st) {
  st.fire_us =
      duration_cast<microseconds>(Clock::now().time_since_epoch()).count();
  st.round_due = true;
  dispatch(st);
  // Drift-free re-arm: the next deadline grows from the previous *deadline*,
  // so dispatch slop never accumulates. Only when a stall has pushed us a
  // full round (or more) behind do we resync to now — skipping the backlog
  // instead of burst-firing it.
  Shard& home = *shards_[st.shard];
  st.next_deadline += jittered_round(st);
  auto now = Clock::now();
  if (st.next_deadline <= now) {
    st.next_deadline = now + jittered_round(st);
    home.m_resyncs->inc();
  }
  st.timer_id = home.loop.add_timer(st.next_deadline,
                                    [this, &st] { on_round_timer(st); });
}

void ReactorRuntime::dispatch(NodeState& st) {
  // drum-lint: shard-local
  if (st.scheduled) return;
  st.scheduled = true;
  shards_[st.shard]->ready.push_back(&st);
  // drum-lint: shard-local end
}

void ReactorRuntime::run_batch(std::span<NodeState* const> sts, Shard& sh) {
  core::ingress::IngressBatch& batch = sh.batch;
  std::vector<Drained>& scratch = sh.drain_scratch;
  scratch.clear();

  // Phase 1 — drain. Each node is held only long enough to move its backlog
  // (budget-charged, greylist-peeked, decoded) into the shared batch.
  for (NodeState* stp : sts) {
    NodeState& st = *stp;
    st.scheduled = false;
    check::MutexLock lock(st.mu);
    if (st.round_due) {
      st.round_due = false;
      // Round ticks stay self-contained: on_round() drains, flushes and
      // re-budgets via its own internal cycle, and batching a drain across
      // the round boundary would bill the new round's budgets for the old
      // round's backlog. Its internal cycle also consumes any pending
      // readiness, so clear the flag first — an edge arriving later finds
      // scheduled == false and re-enqueues.
      st.ready = false;
      auto now = Clock::now();
      st.node->on_round();
      if (st.m_ticks) {
        st.m_ticks->inc();
        auto gap = duration_cast<microseconds>(now - st.last_tick).count();
        st.m_tick_interval_us->record(static_cast<std::uint64_t>(gap));
        auto now_us =
            duration_cast<microseconds>(now.time_since_epoch()).count();
        auto slop = now_us - st.fire_us;
        st.m_dispatch_us->record(
            static_cast<std::uint64_t>(slop < 0 ? 0 : slop));
        st.last_tick = now;
      }
      continue;
    }
    if (st.ready) {
      st.ready = false;
      auto t0 = Clock::now();
      st.node->drain_ingress(batch);
      scratch.push_back(Drained{
          stp, st.node,
          duration_cast<microseconds>(Clock::now() - t0).count()});
    }
  }

  if (scratch.empty()) return;

  // Phase 2 — the crypto pass: every first-contact pair key the drain left
  // pending and every signature it produced, across ALL nodes, each in one
  // batch, and every port box opened. No node lock is held here, so
  // multicast()/with_node() callers never wait behind the crypto.
  std::size_t pair_keys = 0;
  for (const auto& sec : batch.sections()) pair_keys += sec.pending_keys.size();
  if (pair_keys > 0) sh.m_pair_keys_per_pass->record(pair_keys);
  const std::size_t sigs = batch.verify();
  if (sigs > 0) sh.m_sigs_per_pass->record(sigs);

  // Phase 3 — push the verified frames back in, per node, serialized again.
  for (Drained& d : scratch) {
    NodeState& st = *d.st;
    check::MutexLock lock(st.mu);
    auto t0 = Clock::now();
    auto& sec = batch.section_for(*d.node);
    if (!sec.frames.empty()) {
      d.node->ingest(std::span<core::ingress::VerifiedFrame>(sec.frames));
    }
    if (st.m_polls) {
      auto dt = duration_cast<microseconds>(Clock::now() - t0).count();
      st.m_polls->inc();
      st.m_poll_us->record(static_cast<std::uint64_t>(d.drain_us + dt));
    }
  }
  batch.clear();
}

void ReactorRuntime::shard_cycle(Shard& sh) {
  // drum-lint: shard-local
  // Nothing inside the pass calls dispatch(). A node's sends, port
  // rotations and re-watches queue readiness on the loop itself, which
  // keeps it from parking; their callbacks run on the next iteration.
  const std::size_t n = sh.ready.size();
  for (std::size_t i = 0; i < n; i += kShardBatch) {
    run_batch(std::span<NodeState* const>(sh.ready.data() + i,
                                          std::min(kShardBatch, n - i)),
              sh);
    sh.m_batches->inc();
  }
  DRUM_ASSERT(sh.ready.size() == n, "dispatch() ran inside a shard pass");
  sh.ready.clear();
  // drum-lint: shard-local end
}

void ReactorRuntime::reset_shard(Shard& sh, std::size_t per_shard) {
  // stop() already merged the previous run's telemetry into loop_registry_.
  sh.registry = obs::MetricsRegistry{};
  sh.loop.set_registry(&sh.registry);
  sh.m_batches = &sh.registry.counter("reactor.shard.batches");
  sh.m_resyncs = &sh.registry.counter("reactor.timer_resyncs");
  sh.m_pair_keys_per_pass =
      &sh.registry.histogram("reactor.shard.pair_keys_per_pass");
  sh.m_sigs_per_pass = &sh.registry.histogram("reactor.shard.sigs_per_pass");
  // Each node sits in the ready list at most once.
  sh.ready.reserve(per_shard);
  sh.drain_scratch.reserve(kShardBatch);
}

void ReactorRuntime::start() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (running_.exchange(true)) return;
  const std::size_t per_shard =
      (nodes_.size() + cfg_.shards - 1) / cfg_.shards;
  for (auto& sh : shards_) reset_shard(*sh, per_shard);
  for (auto& st : nodes_) {
    // Each replayed socket gets a catch-up dispatch, so datagrams that
    // arrived while stopped are drained without an explicit kick.
    install_hooks(st);
    arm_first_tick(st);
  }
  for (auto& shp : shards_) {
    Shard* sh = shp.get();
    // Clear the previous run's stop request; lifecycle_mu_ guarantees no
    // stop() can race this before the thread is launched.
    sh->loop.reset();
    sh->thread = std::thread([sh] { sh->loop.run(); });
  }
}

void ReactorRuntime::stop() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (!running_.load()) return;
  for (auto& sh : shards_) sh->loop.stop();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // All shard threads quiesced, each after a full cycle, so every ready
  // list is empty. Cancel timers (else a restart would burst-fire the stale
  // backlog), detach hooks, clear the scheduling flags, and unregister
  // sockets.
  for (auto& st : nodes_) {
    shards_[st.shard]->loop.cancel_timer(st.timer_id);
    {
      check::MutexLock node_lock(st.mu);
      st.node->set_socket_hook(nullptr);
    }
    st.scheduled = false;
    st.ready = false;
    st.round_due = false;
  }
  for (auto& sh : shards_) {
    check::MutexLock lock(sh->sources_mu);
    for (const auto& entry : sh->sources) sh->loop.remove_socket(entry.second);
    sh->sources.clear();
  }
  // Fold this run's loop + reactor.* telemetry into the runtime
  // registry; the shards themselves live on until the destructor.
  for (auto& sh : shards_) loop_registry_.merge(sh->registry);
  loop_registry_.gauge("reactor.shards")
      .set(static_cast<double>(shards_.size()));
  running_.store(false);
}

core::MessageId ReactorRuntime::multicast(NodeId id, util::ByteSpan payload) {
  DRUM_REQUIRE(id < nodes_.size(), "multicast: bad node id ", id);
  NodeState& st = nodes_[id];
  check::MutexLock lock(st.mu);
  return st.node->multicast(payload);
}

void ReactorRuntime::with_node(NodeId id,
                               const std::function<void(core::Node&)>& fn) {
  DRUM_REQUIRE(id < nodes_.size(), "with_node: bad node id ", id);
  DRUM_REQUIRE(fn != nullptr, "with_node requires a callable");
  NodeState& st = nodes_[id];
  check::MutexLock lock(st.mu);
  fn(*st.node);
}

}  // namespace drum::runtime

#include "drum/runtime/reactor.hpp"

#include <algorithm>
#include <atomic>
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

/// Which shard's loop thread we are on, if any. dispatch() keys the
/// same-shard fast path and the ring producer index off this; the owner
/// check keeps two coexisting runtimes (sharing one MemNetwork) from
/// misrouting each other's handoffs.
struct TlsShard {
  const void* owner = nullptr;
  std::size_t index = 0;
};
thread_local TlsShard tls_shard;

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
    sh->index = s;
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
      if (sock.native_handle() >= 0) {
        // Real fd: epoll on the home shard's loop — readiness fires on the
        // home thread with no cross-thread structure at all.
        auto id = sh->loop.add_socket(sock, [this, stp] {
          stp->ready.store(true);
          dispatch(*stp);
        });
        check::MutexLock lock(sh->sources_mu);
        [[maybe_unused]] const bool fresh =
            sh->sources.emplace(&sock, id).second;
        DRUM_ASSERT(fresh, "socket watched twice");
      } else {
        // MemSocket: bypass the loop's mem bridge (whose notify path takes
        // the consumer loop's mutex from the sender's thread) and route the
        // readiness edge through dispatch() directly — same-shard sends
        // stay thread-local, cross-shard sends ride the SPSC ring.
        {
          check::MutexLock lock(sh->sources_mu);
          // 0: no loop registration to undo
          [[maybe_unused]] const bool fresh =
              sh->sources.emplace(&sock, 0).second;
          DRUM_ASSERT(fresh, "socket watched twice");
        }
        sock.set_ready_callback([this, stp] {
          stp->ready.store(true);
          dispatch(*stp);
        });
        // Datagrams may have been delivered before the callback attached.
        stp->ready.store(true);
        dispatch(*stp);
      }
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
      if (id != 0) {
        sh->loop.remove_socket(id);
      } else {
        sock.set_ready_callback(nullptr);
      }
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
  st.round_due.store(true);
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
  // `scheduled` only dedups ring/list entries. A notifier that loses this
  // race is covered: the winner clears `scheduled` before draining the
  // flags, so any flag set after that drain finds `scheduled` false and
  // re-enqueues.
  if (st.scheduled.exchange(true)) return;
  Shard& home = *shards_[st.shard];
  if (tls_shard.owner == this) {
    const std::size_t from = tls_shard.index;
    if (from == st.shard) {
      // drum-lint: shard-local
      // Same shard: the node is drained later this cycle (or next — the
      // cycle hook self-wakes when it leaves work behind). Pure
      // thread-local push.
      home.ready.push_back(&st);
      return;
      // drum-lint: shard-local end
    }
    Shard& prod = *shards_[from];
    util::SpscRing<NodeState*>& ring = *home.inbound[from];
    ring.assume_producer();  // shard `from`'s thread is the sole pusher
    if (ring.try_push(&st)) {
      prod.m_handoffs->inc();
      // Dekker handshake with shard_cycle(): our push must be visible to
      // the consumer's post-idle ring re-scan OR its idle=true must be
      // visible to us — the paired seq_cst fences guarantee at least one.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (home.idle.exchange(false, std::memory_order_relaxed)) {
        home.loop.wake();
        prod.m_wakes->inc();
      }
      return;
    }
    prod.m_ring_full->inc();
    // Fall through: the ring is transiently overfull — the loop's post queue
    // is the unbounded safety valve.
  }
  // External threads (harness, attacker, with_node-triggered rotations,
  // another runtime's shards) and ring-full fallbacks go through the home
  // loop's post queue.
  home.loop.post([this, &st] { shards_[st.shard]->ready.push_back(&st); });
}

void ReactorRuntime::run_batch(std::span<NodeState* const> sts,
                               core::ingress::IngressBatch& batch,
                               std::vector<Drained>& scratch) {
  scratch.clear();

  // Phase 1 — drain. Each node is held only long enough to move its backlog
  // (budget-charged, greylist-peeked, decoded) into the shared batch.
  for (NodeState* stp : sts) {
    NodeState& st = *stp;
    st.scheduled.store(false);
    check::MutexLock lock(st.mu);
    if (st.round_due.exchange(false)) {
      // Round ticks stay self-contained: on_round() drains, flushes and
      // re-budgets via its own internal cycle, and batching a drain across
      // the round boundary would bill the new round's budgets for the old
      // round's backlog. Its internal cycle also consumes any pending
      // readiness, so clear the flag first — an edge arriving later finds
      // scheduled == false and re-enqueues.
      st.ready.store(false);
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
    if (st.ready.exchange(false)) {
      auto t0 = Clock::now();
      st.node->drain_ingress(batch);
      scratch.push_back(Drained{
          stp, st.node,
          duration_cast<microseconds>(Clock::now() - t0).count()});
    }
  }

  if (scratch.empty()) return;

  // Phase 2 — the crypto pass: every signature the drain produced, across
  // ALL nodes, in one batch, and every port box opened. No node lock is held
  // here, so multicast()/with_node() callers never wait behind the crypto.
  batch.verify();

  // Phase 3 — push the verified frames back in, per node, serialized again.
  for (Drained& d : scratch) {
    NodeState& st = *d.st;
    check::MutexLock lock(st.mu);
    auto t0 = Clock::now();
    auto& sec = batch.section_for(*d.node);
    if (!sec.frames.empty()) {
      d.node->ingest(std::span<core::ingress::VerifiedFrame>(sec.frames));
      // A late post from before a restart can list a node twice in one
      // pass; both drains filled this one section, which is ingested once.
      sec.frames.clear();
    }
    if (st.m_polls) {
      auto dt = duration_cast<microseconds>(Clock::now() - t0).count();
      st.m_polls->inc();
      st.m_poll_us->record(static_cast<std::uint64_t>(d.drain_us + dt));
    }
  }
  batch.clear();
}

void ReactorRuntime::drain_rings(Shard& sh) {
  // drum-lint: shard-local
  for (auto& ring : sh.inbound) {
    if (!ring) continue;
    ring->assume_consumer();  // this shard's thread is the sole popper
    NodeState* st = nullptr;
    while (ring->try_pop(st)) sh.ready.push_back(st);
  }
  // drum-lint: shard-local end
}

void ReactorRuntime::shard_cycle(Shard& sh) {
  // We are demonstrably awake; claim active so producers stop nudging.
  sh.idle.store(false, std::memory_order_relaxed);
  drain_rings(sh);
  if (!sh.ready.empty()) {
    // drum-lint: shard-local
    // Swap before processing: run_batch re-enters dispatch() (a node's
    // sends wake same-shard peers), which appends to sh.ready — never to
    // the vector being iterated.
    sh.proc.clear();
    sh.proc.swap(sh.ready);
    std::size_t i = 0;
    while (i < sh.proc.size()) {
      const std::size_t n = std::min(kShardBatch, sh.proc.size() - i);
      run_batch(std::span<NodeState* const>(sh.proc.data() + i, n), sh.batch,
                sh.drain_scratch);
      sh.m_batches->inc();
      i += n;
    }
    sh.proc.clear();
    // drum-lint: shard-local end
  }
  if (!sh.ready.empty()) {
    // Processing produced more same-shard work. Return through epoll (so fd
    // readiness and timers are not starved) but make it come straight back.
    sh.loop.wake();
    return;
  }
  // Nothing local. Declare idle, then re-scan the rings: a producer whose
  // push raced our drain either sees idle == true (and nudges us) or its
  // push is visible to this scan — the fence pairs with dispatch()'s.
  sh.idle.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (auto& ring : sh.inbound) {
    if (ring && !ring->empty()) {
      sh.idle.store(false, std::memory_order_relaxed);
      sh.loop.wake();
      return;
    }
  }
  // Truly idle: block in epoll until a producer's nudge, fd readiness, or
  // the next round timer. (A lost wake cannot stall the shard forever —
  // every node re-arms a round timer on this loop.)
}

void ReactorRuntime::reset_shard(Shard& sh, std::size_t per_shard) {
  // stop() already merged the previous run's telemetry into loop_registry_.
  sh.registry = obs::MetricsRegistry{};
  sh.loop.set_registry(&sh.registry);
  sh.m_handoffs = &sh.registry.counter("reactor.shard.ring_handoffs");
  sh.m_wakes = &sh.registry.counter("reactor.shard.wakeups");
  sh.m_ring_full = &sh.registry.counter("reactor.shard.ring_full_fallbacks");
  sh.m_batches = &sh.registry.counter("reactor.shard.batches");
  sh.m_resyncs = &sh.registry.counter("reactor.timer_resyncs");
  // Entries left over from the previous run are stale: stop() cleared every
  // node's scheduling flags.
  sh.ready.clear();
  sh.ready.reserve(per_shard + kShardBatch);
  sh.proc.reserve(per_shard + kShardBatch);
  sh.drain_scratch.reserve(kShardBatch);
  sh.idle.store(true, std::memory_order_relaxed);
  // Sized for the nodes registered now (add_node() may have run since).
  sh.inbound.clear();
  sh.inbound.resize(cfg_.shards);
  for (std::size_t p = 0; p < cfg_.shards; ++p) {
    if (p == sh.index) continue;
    sh.inbound[p] = std::make_unique<util::SpscRing<NodeState*>>(
        std::max<std::size_t>(64, per_shard + 1));
  }
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
    sh->thread = std::thread([this, sh] {
      tls_shard = TlsShard{this, sh->index};
      sh->loop.run();
      tls_shard = TlsShard{};
    });
  }
}

void ReactorRuntime::stop() {
  check::MutexLock lifecycle(lifecycle_mu_);
  if (!running_.load()) return;
  for (auto& sh : shards_) sh->loop.stop();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // All shard threads quiesced. Cancel timers (else a restart would
  // burst-fire the stale backlog), detach hooks, clear the scheduling flags
  // (ready lists, rings and post queues may keep stale entries; start()
  // drops the first two, run_batch() tolerates the third), and unregister
  // sockets.
  for (auto& st : nodes_) {
    shards_[st.shard]->loop.cancel_timer(st.timer_id);
    {
      check::MutexLock node_lock(st.mu);
      st.node->set_socket_hook(nullptr);
    }
    st.scheduled.store(false);
    st.ready.store(false);
    st.round_due.store(false);
  }
  for (auto& sh : shards_) {
    check::MutexLock lock(sh->sources_mu);
    for (auto& [sock, id] : sh->sources) {
      if (id != 0) {
        sh->loop.remove_socket(id);
      } else {
        sock->set_ready_callback(nullptr);
      }
    }
    sh->sources.clear();
  }
  // Fold this run's loop + reactor.shard.* telemetry into the runtime
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

// ReactorRuntime — event-driven execution of many protocol nodes in one
// process (DESIGN.md §8, §13).
//
// A thread per node caps a single-process experiment at a few dozen nodes:
// each node costs a thread that wakes on a cadence whether or not datagrams
// arrived. ReactorRuntime inverts that: net::EventLoops own readiness (epoll
// for UDP sockets, a timerfd-backed deadline queue for round ticks; MemSocket
// readiness callbacks feed the same dispatch path), and node callbacks run
// only when there is work. 512 nodes plus a flooding adversary fit in one
// Release process (examples/swarm.cpp).
//
// The shard is the only execution unit. ReactorConfig::shards = K >= 1 event
// loops, one thread each; shard s owns the nodes with id % K == s, its own
// ingress batch, drain scratch and telemetry registry, so the steady-state
// hot path allocates nothing and contends on no cross-thread mutex. K = 1 is
// one loop on one thread with no rings. With K >= 2, a dispatch targeting a
// node homed on another shard crosses over a bounded util::SpscRing (one per
// ordered shard pair) plus an eventfd nudge when the consumer had gone idle;
// everything else stays on the node's home thread. Each loop iteration ends
// in one drain -> batch-verify -> ingest pass over every node that became
// runnable (DESIGN.md §12).
//
// Lifetime: the K shards (loops, registries) are built once by the
// constructor and destroyed only by the destructor. stop() stops and joins
// the shard threads and resets per-run state, so a MemSocket ready callback
// still running on a foreign thread (another runtime's shard sharing the
// MemNetwork) always reaches a live loop. Such late calls only ever post()
// to the home loop; the rings are rebuilt by start() because no foreign
// thread touches them.
//
// Serialization contract: a core::Node stays single-threaded. Every entry
// into a node — drain_ingress(), ingest(), on_round(), multicast(),
// with_node() — happens under that node's own mutex; the scheduled/ready/
// round_due flags ensure at most one pending entry per node and no readiness
// edge is lost. The home shard thread is the only steady-state contender, so
// the per-node lock is an uncontended CAS — it exists to keep
// multicast()/with_node() safe from any thread. Delivery callbacks run on
// the node's home shard thread (or the multicast()/with_node() caller's) and
// must never re-enter node entry points.
//
// Round ticks are per-node one-shot timers on the node's home loop, re-armed
// from the previous deadline (next = previous + jittered(round)), never from
// "now" — so per-tick dispatch latency does not accumulate into drift. A
// node that falls more than one full round behind resynchronizes to now
// instead of burst-firing the backlog; the "reactor.timer_resyncs" counter
// records each such skip.
//
// Telemetry: each node's registry gains "runner.*" metrics (ticks, polls,
// poll_us, tick_interval_us) plus "reactor.dispatch_us". Every shard's
// "loop.*" metrics (net::EventLoop) and "reactor.shard.*" counters
// (ring_handoffs, wakeups, ring_full_fallbacks, batches) merge into the
// runtime's loop_registry() at stop(), plus the "reactor.shards" gauge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/core/node.hpp"
#include "drum/net/event_loop.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/spsc_ring.hpp"

namespace drum::runtime {

struct ReactorConfig {
  /// Mean local round duration (paper: ~1 s).
  std::chrono::milliseconds round{1000};
  /// Uniform jitter as a fraction of `round` (+/-): keeps rounds
  /// unsynchronized across nodes (paper §4, §8).
  double jitter = 0.2;
  /// Must be 0: the runtime has no worker pool. The field only remains
  /// because the benchmark package (perfbench/) still assigns it; the next
  /// change to the benchmark removes it.
  std::size_t workers = 0;
  /// Event-loop shards, K >= 1: one thread per shard, each owning the nodes
  /// with id % K == its index. 0 is rejected — the count never depends on
  /// the host.
  std::size_t shards = 1;
  /// Record "runner.*" / "reactor.*" timing into each node's registry.
  bool instrument = true;
};

class ReactorRuntime {
 public:
  using NodeId = std::size_t;

  /// Builds the shards. Throws std::invalid_argument when cfg.shards == 0
  /// or cfg.workers != 0.
  explicit ReactorRuntime(ReactorConfig cfg);
  /// Stops and joins if still running.
  ~ReactorRuntime();

  ReactorRuntime(const ReactorRuntime&) = delete;
  ReactorRuntime& operator=(const ReactorRuntime&) = delete;

  /// Registers a node; only legal while stopped. `node` must outlive the
  /// runtime. `seed` feeds this node's tick-jitter RNG. Returns the id used
  /// by multicast()/with_node(); the node is homed on shard id % shards.
  NodeId add_node(core::Node& node, std::uint64_t seed);

  /// Installs socket hooks, arms every node's first round tick, and launches
  /// the shard threads. Idempotent while running.
  void start();
  /// Idempotent; blocks until all shard threads joined, then detaches the
  /// socket hooks so nodes are plain single-threaded objects again. start()
  /// may be called again afterwards.
  void stop();
  [[nodiscard]] bool running() const { return running_.load(); }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// The configured shard count.
  [[nodiscard]] std::size_t shard_count() const { return cfg_.shards; }

  /// Thread-safe multicast through node `id`.
  core::MessageId multicast(NodeId id, util::ByteSpan payload);

  /// Runs `fn` with exclusive access to node `id`. Keep it short — it blocks
  /// that node's protocol (and its shard).
  void with_node(NodeId id, const std::function<void(core::Node&)>& fn);

  /// The runtime's own telemetry: every shard's "loop.*" counters, timer
  /// slop histogram, "reactor.timer_resyncs" and "reactor.shard.*"
  /// counters, merged at stop(). Read only while stopped.
  [[nodiscard]] const obs::MetricsRegistry& loop_registry() const {
    return loop_registry_;
  }

 private:
  struct NodeState {
    /// Serializes all entry into the node — the lock that implements the
    /// "a core::Node stays single-threaded" contract above.
    check::Mutex mu;
    core::Node* node DRUM_GUARDED_BY(mu) = nullptr;
    util::Rng rng;  ///< tick jitter; home loop thread only (after start)

    /// Which shard owns this node (id % shards); fixed by add_node().
    std::size_t shard = 0;

    /// True while the node sits in a ring, a post queue, or a shard-local
    /// ready list, or is being drained — prevents duplicate entries, not
    /// duplicate work (mu does that).
    std::atomic<bool> scheduled{false};
    std::atomic<bool> ready{false};      ///< sockets may have datagrams
    std::atomic<bool> round_due{false};  ///< the round timer fired

    // Round-tick bookkeeping; home loop thread only.
    net::EventLoop::Clock::time_point next_deadline{};
    net::EventLoop::TimerId timer_id = 0;
    /// When the current round tick fired, as µs since the steady-clock
    /// epoch.
    std::int64_t fire_us = 0;

    // Telemetry; written under mu.
    obs::Counter* m_ticks DRUM_GUARDED_BY(mu) = nullptr;
    obs::Counter* m_polls DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_poll_us DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_tick_interval_us DRUM_GUARDED_BY(mu) = nullptr;
    obs::Histogram* m_dispatch_us DRUM_GUARDED_BY(mu) = nullptr;
    net::EventLoop::Clock::time_point last_tick DRUM_GUARDED_BY(mu){};

    NodeState(core::Node& n, std::uint64_t seed, std::size_t home)
        : node(&n), rng(seed), shard(home) {}
  };

  /// One drained node awaiting its post-verify ingest (run_batch phase 3).
  struct Drained {
    NodeState* st = nullptr;
    core::Node* node = nullptr;  // captured under st->mu during the drain
    std::int64_t drain_us = 0;
  };

  /// Everything one shard thread owns (DESIGN.md §13). Only `loop`,
  /// `inbound`, `idle`, and `sources` are ever touched by another thread;
  /// the rest is loop-thread confined while running.
  struct Shard {
    std::size_t index = 0;
    net::EventLoop loop;
    obs::MetricsRegistry registry;  ///< per run; merged at stop()

    // drum-lint: shard-local
    /// Nodes to drain this cycle; fed by same-shard dispatches, by
    /// drain_rings() and by posts from foreign threads. Swapped into `proc`
    /// before processing so run_batch's own dispatches (a node's sends
    /// waking a same-shard peer) append to a stable vector.
    std::vector<NodeState*> ready;
    std::vector<NodeState*> proc;
    std::vector<Drained> drain_scratch;
    core::ingress::IngressBatch batch;
    // drum-lint: shard-local end

    /// inbound[p] carries handoffs produced by shard p (null when
    /// p == index). Capacity covers every node homed here, so a push only
    /// fails if a stale duplicate race transiently overfills — the producer
    /// then falls back to loop.post().
    std::vector<std::unique_ptr<util::SpscRing<NodeState*>>> inbound;
    /// True while the loop thread is (about to be) blocked in epoll_wait
    /// with all rings drained. A producer that flips true -> false owes the
    /// shard one eventfd nudge; see dispatch() for the fence protocol.
    std::atomic<bool> idle{true};

    /// Socket registrations for this shard's nodes. Hook callbacks usually
    /// fire on the home loop thread (per-round port rotation), but
    /// with_node() can rotate from any thread, hence the lock.
    check::Mutex sources_mu;
    std::unordered_map<net::Socket*, net::EventLoop::SourceId> sources
        DRUM_GUARDED_BY(sources_mu);

    std::thread thread;

    // Telemetry; shard thread only (producer-side counters live in the
    // *producing* shard's registry — registries are single-thread confined).
    obs::Counter* m_handoffs = nullptr;   ///< pushes onto peer rings
    obs::Counter* m_wakes = nullptr;      ///< eventfd nudges sent to peers
    obs::Counter* m_ring_full = nullptr;  ///< full-ring fallbacks to post()
    obs::Counter* m_batches = nullptr;    ///< drain/verify/ingest passes
    obs::Counter* m_resyncs = nullptr;    ///< reactor.timer_resyncs
  };

  net::EventLoop::Clock::duration jittered_round(NodeState& st);
  void arm_first_tick(NodeState& st);
  void on_round_timer(NodeState& st);  // home loop thread
  /// Routes `st` to its home shard: the shard-local ready list when called
  /// on that shard's thread, the inbound ring from another shard of this
  /// runtime, the home loop's post queue from any other thread.
  void dispatch(NodeState& st);
  /// The ingress pipeline (DESIGN.md §12): drain every node under its own
  /// lock into `batch`, run the accumulated crypto once with NO node lock
  /// held, then re-lock each drained node to push its verified frames back
  /// in. Round ticks stay self-contained under a single lock hold.
  void run_batch(std::span<NodeState* const> sts,
                 core::ingress::IngressBatch& batch,
                 std::vector<Drained>& scratch);
  void install_hooks(NodeState& st);
  /// Fresh registry, empty ready lists and a rebuilt handoff mesh for the
  /// next run; called by start() while the shard thread is down.
  void reset_shard(Shard& sh, std::size_t per_shard)
      DRUM_REQUIRES(lifecycle_mu_);

  /// End-of-cycle hook on shard `sh`'s loop thread: drain inbound rings,
  /// run the batch pipeline over everything accumulated, and only declare
  /// the shard idle once a post-drain re-scan of the rings comes up empty.
  void shard_cycle(Shard& sh);
  /// Pops every inbound ring into sh.ready.
  void drain_rings(Shard& sh);

  ReactorConfig cfg_;
  obs::MetricsRegistry loop_registry_;

  std::deque<NodeState> nodes_;  // deque: stable addresses, non-movable state

  /// Serializes start()/stop() against each other; held while the shards'
  /// per-run state is reset.
  check::Mutex lifecycle_mu_;

  /// Built by the constructor, destroyed by the destructor: a late
  /// readiness callback from a foreign thread may post to a loop at any
  /// time. unique_ptr: EventLoop is neither movable nor copyable.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> running_{false};
};

}  // namespace drum::runtime

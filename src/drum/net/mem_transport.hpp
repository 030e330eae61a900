// In-process datagram network. One MemNetwork is the "LAN"; each node gets a
// MemTransport (a host number) and binds Sockets on it. Thread-safe: nodes
// may run on their own threads (one reactor shard each, DESIGN.md §13), and
// the attack injector sends from fake hosts concurrently.
//
// Models what matters for DoS experiments:
//  * per-socket bounded receive queues (like OS socket buffers) — floods
//    overflow them and legitimate packets get dropped at the tail;
//  * iid per-datagram loss;
//  * spoofable source addresses (send_raw lets the attacker claim any from).
//
// Locking is striped so concurrent shards do not serialize on one network
// mutex: a SharedMutex guards the queue *map* (binds and unbinds take it
// exclusive; every send takes it shared to find its destination), and each
// Queue carries its own mutex for the actual enqueue/pop. A socket keeps a
// reference to its own Queue — std::map nodes are stable, and the socket's
// destructor is the only unbind — so receiving takes only the queue's
// mutex. Two nodes on different shards exchanging datagrams therefore
// contend only when they touch the same destination queue — the same
// contention the real kernel has on a socket buffer. Loss
// and latency-jitter draws come from a per-queue RNG seeded from
// (opts.seed, destination address), so a run's drop pattern per destination
// is deterministic regardless of how sender threads interleave. Virtual time
// and the dropped/delivered totals are atomics; the optional metrics
// registry hangs off a dedicated stats mutex that is only ever taken when a
// registry is attached (the single-threaded harnesses), keeping the swarm
// hot path free of it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "drum/check/annotations.hpp"
#include "drum/net/transport.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/util/rng.hpp"

namespace drum::net {

class MemNetwork {
 public:
  struct Options {
    double loss = 0.0;                 ///< per-datagram drop probability
    std::size_t queue_capacity = 4096; ///< per-socket receive queue bound
    std::uint64_t seed = 1;            ///< loss/ephemeral-port randomness
    /// Virtual-time delivery latency: a datagram sent at t becomes
    /// receivable at t + latency (±jitter fraction). Without it, a request/
    /// reply handshake completes "instantaneously" in the same poll sweep
    /// as the victim's round tick — an artificial clean window no real
    /// network has. Drive the clock with advance_to().
    std::int64_t latency_us = 0;
    double latency_jitter = 0.5;
  };

  MemNetwork();
  explicit MemNetwork(Options opts);
  ~MemNetwork();

  MemNetwork(const MemNetwork&) = delete;
  MemNetwork& operator=(const MemNetwork&) = delete;

  /// Creates the transport for `host`. Hosts need not be pre-registered.
  std::unique_ptr<Transport> transport(std::uint32_t host);

  /// Injects a datagram with an arbitrary (spoofed) source address —
  /// the attacker's primitive.
  void send_raw(const Address& from, const Address& to,
                util::ByteSpan payload);

  /// Advances the virtual clock; datagrams become receivable when their
  /// delivery time is reached. Irrelevant when latency_us == 0.
  void advance_to(std::int64_t now_us);

  /// Total datagrams dropped due to loss or full queues (observability).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Total datagrams delivered into some socket queue.
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Attaches a metrics registry (nullptr detaches). The network then
  /// records "net.delivered", per-cause drop counters ("net.dropped_loss",
  /// "net.dropped_no_listener", "net.dropped_overflow") and the
  /// "net.queue_depth" histogram (destination queue depth after each
  /// delivery — what a flood piles up). The registry must outlive the
  /// network; it is written under the stats lock, so read it only while no
  /// sends are in flight.
  void set_registry(obs::MetricsRegistry* registry);

 private:
  friend class MemSocket;
  friend class MemTransport;

  struct Queue {
    /// Serializes enqueue/pop/callback on this one destination — the
    /// striped replacement for the old network-wide lock.
    check::Mutex mu;
    // Ordered by delivery time (latency jitter can reorder datagrams).
    std::multimap<std::int64_t, Datagram> q DRUM_GUARDED_BY(mu);
    /// Readiness bridge (Socket::set_ready_callback): invoked after each
    /// delivery into this queue, outside every network lock, on the
    /// sender's thread. Null when no listener is attached.
    std::function<void()> on_ready DRUM_GUARDED_BY(mu);
    /// Per-destination deterministic stream for loss and latency draws,
    /// seeded from (network seed, address) at bind.
    util::Rng rng DRUM_GUARDED_BY(mu){0};
  };

  void deliver(const Address& from, const Address& to, util::ByteSpan payload);
  /// Scatter delivery: per-datagram admission identical to deliver(), but
  /// one map-lock acquisition for the whole batch and one readiness edge per
  /// distinct destination queue (Socket::send_many's mem-transport leg).
  void deliver_many(const Address& from, const OutboundDatagram* msgs,
                    std::size_t count);
  /// Admission + enqueue of one datagram into `dst`. True on delivery,
  /// false when dropped (loss, overflow) — the caller fires the queue's
  /// readiness callback outside the lock.
  bool admit(Queue& dst, const Address& from, util::ByteSpan payload)
      DRUM_REQUIRES(dst.mu);
  void drop_no_listener();
  /// Seeds a freshly inserted queue's RNG from the network seed + address.
  static void seed_queue(Queue& dst, std::uint64_t seed, const Address& at);
  /// Creates the queue for `at`; null when the address is taken.
  Queue* bind_queue(const Address& at);
  /// Creates the queue of a free ephemeral port on `host`: the port and its
  /// queue, or {0, nullptr} when none was found.
  std::pair<std::uint16_t, Queue*> bind_ephemeral(std::uint32_t host);
  void unbind_queue(const Address& at);

  /// Map structure lock: exclusive for bind/unbind/ephemeral picks, shared
  /// for every send. std::map nodes are stable, so holding it shared pins a
  /// Queue in place while its own mutex does the real work; a socket's own
  /// queue stays pinned until the socket unbinds it.
  mutable check::SharedMutex map_mu_;
  Options opts_;  ///< immutable after construction
  util::Rng bind_rng_ DRUM_GUARDED_BY(map_mu_);  ///< ephemeral-port picks
  std::map<Address, Queue> queues_ DRUM_GUARDED_BY(map_mu_);

  /// Virtual time; monotonic (advance_to takes a max). Relaxed loads are
  /// fine: readers only compare against enqueue stamps that were produced
  /// under the same queue's mutex or earlier in program order.
  std::atomic<std::int64_t> now_us_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> delivered_{0};

  // Optional instrumentation (handles cached at attach time). The stats
  // lock is taken on the datagram path only while a registry is attached —
  // the instrumented harnesses are single-threaded, the multi-shard swarm
  // leaves it detached.
  std::atomic<bool> has_stats_{false};
  mutable check::Mutex stats_mu_;
  obs::Counter* m_delivered_ DRUM_GUARDED_BY(stats_mu_) = nullptr;
  obs::Counter* m_dropped_loss_ DRUM_GUARDED_BY(stats_mu_) = nullptr;
  obs::Counter* m_dropped_no_listener_ DRUM_GUARDED_BY(stats_mu_) = nullptr;
  obs::Counter* m_dropped_overflow_ DRUM_GUARDED_BY(stats_mu_) = nullptr;
  obs::Histogram* m_queue_depth_ DRUM_GUARDED_BY(stats_mu_) = nullptr;
};

}  // namespace drum::net

#include "drum/net/mem_transport.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "drum/check/check.hpp"

namespace drum::net {

namespace {
// Ephemeral ports are picked from this range, mirroring the IANA dynamic
// range. An attacker who wants to hit a random port has ~16k candidates.
constexpr std::uint16_t kEphemeralBase = 49152;
constexpr std::uint16_t kEphemeralCount = 16384;
}  // namespace

class MemSocket final : public Socket {
 public:
  MemSocket(MemNetwork& net, Address local, MemNetwork::Queue& queue)
      : net_(net), local_(local), queue_(queue) {}
  ~MemSocket() override { net_.unbind_queue(local_); }

  std::optional<Datagram> recv() override {
    check::MutexLock lock(queue_.mu);
    if (queue_.q.empty()) return std::nullopt;
    auto first = queue_.q.begin();
    if (first->first > net_.now_us_.load(std::memory_order_relaxed)) {
      return std::nullopt;  // still in flight
    }
    Datagram d = std::move(first->second);
    queue_.q.erase(first);
    return d;
  }

  // One queue lock per chunk instead of the base class's lock per
  // datagram — the mem-transport analogue of recvmmsg. Everything popped
  // must already be deliverable (ready_at <= now), exactly as if recv() had
  // been called `max` times; in-flight datagrams stay queued.
  std::size_t recv_batch(Datagram* out, std::size_t max) override {
    check::MutexLock lock(queue_.mu);
    auto& q = queue_.q;
    const std::int64_t now = net_.now_us_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max && !q.empty()) {
      auto first = q.begin();
      if (first->first > now) break;  // still in flight
      out[n++] = std::move(first->second);
      q.erase(first);
    }
#if DRUM_CHECKED
    // The batch must stop for exactly one of three reasons: the caller's
    // window filled, the queue drained, or the head is still in flight. A
    // queue past its bound here means admit()'s admission control broke.
    DRUM_INVARIANT(q.size() <= net_.opts_.queue_capacity,
                   "receive queue exceeded its capacity after batch pop: ",
                   q.size(), "/", net_.opts_.queue_capacity);
    DRUM_INVARIANT(n == max || q.empty() || q.begin()->first > now,
                   "recv_batch stopped with deliverable datagrams pending");
#endif
    return n;
  }

  // Erases the deliverable prefix in one lock; in-flight datagrams stay.
  std::size_t discard() override {
    check::MutexLock lock(queue_.mu);
    auto& q = queue_.q;
    const auto due =
        q.upper_bound(net_.now_us_.load(std::memory_order_relaxed));
    const auto n = static_cast<std::size_t>(std::distance(q.begin(), due));
    q.erase(q.begin(), due);
    return n;
  }

  void send(const Address& to, util::ByteSpan payload) override {
    net_.deliver(local_, to, payload);
  }

  void send_many(const OutboundDatagram* msgs, std::size_t count) override {
    net_.deliver_many(local_, msgs, count);
  }

  [[nodiscard]] Address local() const override { return local_; }

  void set_ready_callback(std::function<void()> cb) override {
    check::MutexLock lock(queue_.mu);
    queue_.on_ready = std::move(cb);
  }

 private:
  MemNetwork& net_;
  Address local_;
  MemNetwork::Queue& queue_;  // lives until ~MemSocket unbinds it
};

class MemTransport final : public Transport {
 public:
  MemTransport(MemNetwork& net, std::uint32_t host) : net_(net), host_(host) {}

  BindResult bind(std::uint16_t port) override {
    if (port == 0) {
      const auto [ephemeral, queue] = net_.bind_ephemeral(host_);
      if (!queue) return BindError::kPortsExhausted;
      return std::make_unique<MemSocket>(net_, Address{host_, ephemeral},
                                         *queue);
    }
    const Address addr{host_, port};
    MemNetwork::Queue* queue = net_.bind_queue(addr);
    if (!queue) return BindError::kPortTaken;
    return std::make_unique<MemSocket>(net_, addr, *queue);
  }

  [[nodiscard]] std::uint32_t host() const override { return host_; }

 private:
  MemNetwork& net_;
  std::uint32_t host_;
};

MemNetwork::MemNetwork() : MemNetwork(Options{}) {}
MemNetwork::MemNetwork(Options opts) : opts_(opts), bind_rng_(opts.seed) {
  DRUM_REQUIRE(opts.loss >= 0.0 && opts.loss <= 1.0,
               "loss must be a probability: ", opts.loss);
  DRUM_REQUIRE(opts.latency_jitter >= 0.0 && opts.latency_jitter <= 1.0,
               "latency jitter must be in [0, 1]: ", opts.latency_jitter);
  DRUM_REQUIRE(opts.queue_capacity > 0, "queue capacity must be positive");
}
MemNetwork::~MemNetwork() = default;

std::unique_ptr<Transport> MemNetwork::transport(std::uint32_t host) {
  return std::make_unique<MemTransport>(*this, host);
}

void MemNetwork::send_raw(const Address& from, const Address& to,
                          util::ByteSpan payload) {
  deliver(from, to, payload);
}

void MemNetwork::set_registry(obs::MetricsRegistry* registry) {
  check::MutexLock lock(stats_mu_);
  if (!registry) {
    has_stats_.store(false, std::memory_order_relaxed);
    m_delivered_ = nullptr;
    m_dropped_loss_ = nullptr;
    m_dropped_no_listener_ = nullptr;
    m_dropped_overflow_ = nullptr;
    m_queue_depth_ = nullptr;
    return;
  }
  m_delivered_ = &registry->counter("net.delivered");
  m_dropped_loss_ = &registry->counter("net.dropped_loss");
  m_dropped_no_listener_ = &registry->counter("net.dropped_no_listener");
  m_dropped_overflow_ = &registry->counter("net.dropped_overflow");
  m_queue_depth_ = &registry->histogram("net.queue_depth");
  has_stats_.store(true, std::memory_order_relaxed);
}

void MemNetwork::seed_queue(Queue& dst, std::uint64_t seed,
                            const Address& at) {
  // SplitMix decorrelates adjacent addresses; the queue's stream depends
  // only on (network seed, destination), never on bind order.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(at.host) << 16) | at.port;
  check::MutexLock lock(dst.mu);
  dst.rng = util::Rng(util::SplitMix64(seed ^ key).next());
}

void MemNetwork::drop_no_listener() {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  if (has_stats_.load(std::memory_order_relaxed)) {
    check::MutexLock stats(stats_mu_);
    if (m_dropped_no_listener_) m_dropped_no_listener_->inc();
  }
}

bool MemNetwork::admit(Queue& dst, const Address& from,
                       util::ByteSpan payload) {
  if (opts_.loss > 0 && dst.rng.chance(opts_.loss)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (has_stats_.load(std::memory_order_relaxed)) {
      check::MutexLock stats(stats_mu_);
      if (m_dropped_loss_) m_dropped_loss_->inc();
    }
    return false;
  }
  if (dst.q.size() >= opts_.queue_capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // the flood's effect
    if (has_stats_.load(std::memory_order_relaxed)) {
      check::MutexLock stats(stats_mu_);
      if (m_dropped_overflow_) m_dropped_overflow_->inc();
    }
    return false;
  }
  const std::int64_t now = now_us_.load(std::memory_order_relaxed);
  std::int64_t ready_at = now;
  if (opts_.latency_us > 0) {
    double jitter =
        1.0 + opts_.latency_jitter * (2.0 * dst.rng.uniform() - 1.0);
    ready_at += static_cast<std::int64_t>(
        static_cast<double>(opts_.latency_us) * jitter);
  }
  DRUM_ASSERT(ready_at >= now, "datagram scheduled in the past");
  dst.q.emplace(ready_at,
                Datagram{from, util::Bytes(payload.begin(), payload.end())});
  // The overflow branch above is the only admission control; a queue past
  // its capacity means the bounded-socket-buffer model is broken.
  DRUM_INVARIANT(dst.q.size() <= opts_.queue_capacity,
                 "receive queue exceeded its capacity: ", dst.q.size(), "/",
                 opts_.queue_capacity);
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (has_stats_.load(std::memory_order_relaxed)) {
    check::MutexLock stats(stats_mu_);
    if (m_delivered_) {
      m_delivered_->inc();
      m_queue_depth_->record(dst.q.size());
    }
  }
  return true;
}

void MemNetwork::deliver(const Address& from, const Address& to,
                         util::ByteSpan payload) {
  // The ready callback fires outside every lock: it typically reaches into
  // a reactor shard (an EventLoop's own mutex, and its eventfd when the
  // loop is parked), and holding network locks across foreign code invites
  // lock-order cycles.
  std::function<void()> notify;
  {
    check::SharedLock map(map_mu_);
    auto it = queues_.find(to);
    if (it == queues_.end()) {
      drop_no_listener();  // no listener: silently dropped, like UDP
      return;
    }
    Queue& dst = it->second;
    check::MutexLock lock(dst.mu);
    if (admit(dst, from, payload)) {
      notify = dst.on_ready;  // copy: the queue may die after unlock
    }
  }
  if (notify) notify();
}

void MemNetwork::deliver_many(const Address& from, const OutboundDatagram* msgs,
                              std::size_t count) {
  // One map lock for the whole fan-out, and one readiness edge per distinct
  // destination queue: readiness bridges are level-triggered, so a second
  // callback for the same queue is a wasted wakeup.
  std::vector<std::function<void()>> notifies;
  {
    check::SharedLock map(map_mu_);
    std::vector<const Queue*> seen;
    for (std::size_t i = 0; i < count; ++i) {
      auto it = queues_.find(msgs[i].to);
      if (it == queues_.end()) {
        drop_no_listener();
        continue;
      }
      Queue& dst = it->second;
      check::MutexLock lock(dst.mu);
      if (!admit(dst, from, msgs[i].payload) || !dst.on_ready) continue;
      if (std::find(seen.begin(), seen.end(), &dst) != seen.end()) continue;
      seen.push_back(&dst);
      notifies.push_back(dst.on_ready);  // copy: queues may die after unlock
    }
  }
  for (auto& notify : notifies) notify();
}

void MemNetwork::advance_to(std::int64_t now_us) {
  std::int64_t cur = now_us_.load(std::memory_order_relaxed);
  while (now_us > cur &&
         !now_us_.compare_exchange_weak(cur, now_us,
                                        std::memory_order_relaxed)) {
  }
}

MemNetwork::Queue* MemNetwork::bind_queue(const Address& at) {
  check::SharedMutexLock lock(map_mu_);
  auto [it, inserted] = queues_.try_emplace(at);
  if (!inserted) return nullptr;
  seed_queue(it->second, opts_.seed, at);
  return &it->second;
}

void MemNetwork::unbind_queue(const Address& at) {
  check::SharedMutexLock lock(map_mu_);
  queues_.erase(at);
}

std::pair<std::uint16_t, MemNetwork::Queue*> MemNetwork::bind_ephemeral(
    std::uint32_t host) {
  check::SharedMutexLock lock(map_mu_);
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto port = static_cast<std::uint16_t>(kEphemeralBase +
                                           bind_rng_.below(kEphemeralCount));
    Address addr{host, port};
    auto [it, inserted] = queues_.try_emplace(addr);
    if (inserted) {
      seed_queue(it->second, opts_.seed, addr);
      return {port, &it->second};
    }
  }
  return {0, nullptr};
}

}  // namespace drum::net

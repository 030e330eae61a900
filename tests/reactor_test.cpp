// The event-driven runtime seam: EventLoop readiness/timer semantics and
// ReactorRuntime multiplexing many nodes over its shards (DESIGN.md §8, §13).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "drum/net/event_loop.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/check/annotations.hpp"
#include "drum/runtime/reactor.hpp"

namespace drum::runtime {
namespace {

using namespace std::chrono_literals;
using Clock = net::EventLoop::Clock;

bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds deadline) {
  auto end = Clock::now() + deadline;
  while (Clock::now() < end) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

/// Runs an EventLoop on its own thread for the test's lifetime.
struct LoopFixture {
  net::EventLoop loop;
  std::thread thread;

  LoopFixture() : thread([this] { loop.run(); }) {}
  ~LoopFixture() {
    loop.stop();
    thread.join();
  }
};

TEST(EventLoop, TimerFiresAtDeadline) {
  LoopFixture f;
  std::atomic<int> fired{0};
  f.loop.add_timer_in(20ms, [&] { fired.fetch_add(1); });
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }, 2000ms));
  // One-shot: it must not fire again.
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  LoopFixture f;
  check::Mutex mu;
  std::vector<int> order;
  auto at = Clock::now() + 30ms;
  f.loop.add_timer(at + 20ms, [&] {
    check::MutexLock l(mu);
    order.push_back(3);
  });
  f.loop.add_timer(at, [&] {
    check::MutexLock l(mu);
    order.push_back(1);
  });
  f.loop.add_timer(at + 10ms, [&] {
    check::MutexLock l(mu);
    order.push_back(2);
  });
  EXPECT_TRUE(eventually(
      [&] {
        check::MutexLock l(mu);
        return order.size() == 3;
      },
      2000ms));
  check::MutexLock l(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  LoopFixture f;
  std::atomic<int> fired{0};
  auto id = f.loop.add_timer_in(50ms, [&] { fired.fetch_add(1); });
  f.loop.cancel_timer(id);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(fired.load(), 0);
}

TEST(EventLoop, PostRunsOnLoopThread) {
  LoopFixture f;
  std::atomic<bool> ran{false};
  std::thread::id loop_tid;
  f.loop.post([&] {
    loop_tid = std::this_thread::get_id();
    ran.store(true);
  });
  EXPECT_TRUE(eventually([&] { return ran.load(); }, 2000ms));
  EXPECT_EQ(loop_tid, f.thread.get_id());
}

TEST(EventLoop, MemSocketReadinessWakesLoop) {
  net::MemNetwork mem;
  auto tr = mem.transport(1);
  auto sock = tr->bind(100).take();
  ASSERT_NE(sock, nullptr);

  LoopFixture f;
  std::atomic<int> drained{0};
  f.loop.add_socket(*sock, [&] {
    while (sock->recv()) drained.fetch_add(1);
  });

  util::Bytes msg{1, 2, 3};
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 3; }, 2000ms));
}

TEST(EventLoop, CatchesUpDatagramsDeliveredBeforeRegistration) {
  net::MemNetwork mem;
  auto tr = mem.transport(1);
  auto sock = tr->bind(100).take();
  util::Bytes msg{42};
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));  // before add_socket

  LoopFixture f;
  std::atomic<int> drained{0};
  f.loop.add_socket(*sock, [&] {
    while (sock->recv()) drained.fetch_add(1);
  });
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));
}

TEST(EventLoop, UdpSocketReadinessViaEpoll) {
  net::UdpTransport tr;
  auto rx = tr.bind(0).take();
  auto tx = tr.bind(0).take();
  ASSERT_TRUE(rx && tx);

  LoopFixture f;
  std::atomic<int> drained{0};
  f.loop.add_socket(*rx, [&] {
    net::Datagram batch[16];
    for (;;) {
      std::size_t n = rx->recv_batch(batch, 16);
      drained.fetch_add(static_cast<int>(n));
      if (n == 0) break;
    }
  });

  util::Bytes msg{7, 7};
  tx->send(rx->local(), util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 1; }, 2000ms));
  // Edge-triggered: each new datagram must produce a fresh wakeup.
  tx->send(rx->local(), util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return drained.load() == 2; }, 2000ms));
}

TEST(EventLoop, RemovedSocketStopsDispatching) {
  net::MemNetwork mem;
  auto tr = mem.transport(1);
  auto sock = tr->bind(100).take();

  LoopFixture f;
  std::atomic<int> wakes{0};
  auto id = f.loop.add_socket(*sock, [&] { wakes.fetch_add(1); });
  util::Bytes msg{1};
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
  EXPECT_TRUE(eventually([&] { return wakes.load() >= 1; }, 2000ms));

  f.loop.remove_socket(id);
  int settled = wakes.load();
  mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(wakes.load(), settled);
}

// The tick-drift regression (satellite of DESIGN.md §8): re-arming a
// periodic timer from the *previous deadline* keeps the period exact even
// when every callback burns real time; re-arming from "now" (the old
// sleep-polling runner's behavior) stretches the period by the per-tick
// slop. Ten
// 30 ms periods with ~10 ms of work per tick: drift-free finishes in
// ~300 ms, the drifting variant needed >= 400 ms.
constexpr int kDriftTicks = 10;
constexpr auto kDriftPeriod = 30ms;

TEST(EventLoop, AbsoluteReArmDoesNotAccumulateDrift) {
  LoopFixture f;
  std::atomic<int> fired{0};
  std::atomic<std::int64_t> done_us{0};
  const auto start = Clock::now();

  struct Chain {
    net::EventLoop* loop;
    Clock::time_point deadline;
    std::atomic<int>* fired;
    std::atomic<std::int64_t>* done_us;
    Clock::time_point start;

    void fire() {
      std::this_thread::sleep_for(10ms);  // simulated round work
      int n = fired->fetch_add(1) + 1;
      if (n < kDriftTicks) {
        deadline += kDriftPeriod;  // from the previous deadline, not now
        loop->add_timer(deadline, [this] { fire(); });
      } else {
        done_us->store(std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count());
      }
    }
  };
  Chain chain{&f.loop, start + kDriftPeriod, &fired, &done_us, start};
  f.loop.add_timer(chain.deadline, [&chain] { chain.fire(); });

  EXPECT_TRUE(
      eventually([&] { return fired.load() == kDriftTicks; }, 5000ms));
  const double elapsed_ms = static_cast<double>(done_us.load()) / 1000.0;
  EXPECT_GE(elapsed_ms, 295.0);  // can't finish before the last deadline
  EXPECT_LT(elapsed_ms, 395.0);  // drifting re-arm needed >= 400 ms
}

/// A fleet of real nodes over one MemNetwork (or loopback UDP), hosted by
/// `reactor`. Nodes with id >= `split` go to a second runtime, `peer`, built
/// from the same config.
struct Fleet {
  /// First payload byte of the messages a test tracks apart from background
  /// gossip; their deliveries are counted in `marked`.
  static constexpr std::uint8_t kMark = 0xFF;

  util::Rng rng{31};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::unique_ptr<ReactorRuntime> reactor;
  std::unique_ptr<ReactorRuntime> peer;
  std::atomic<int> delivered{0};
  std::atomic<int> marked{0};

  Fleet(std::size_t n, bool udp, std::uint16_t base_port, ReactorConfig rc,
        std::size_t split = SIZE_MAX) {
    const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");
    dir.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 udp ? udp_host : id,
                 static_cast<std::uint16_t>(base_port + 2 * id),
                 static_cast<std::uint16_t>(base_port + 2 * id + 1),
                 0,
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    reactor = std::make_unique<ReactorRuntime>(rc);
    if (split < n) peer = std::make_unique<ReactorRuntime>(rc);
    for (std::uint32_t id = 0; id < n; ++id) {
      transports.push_back(
          udp ? std::unique_ptr<net::Transport>(
                    std::make_unique<net::UdpTransport>(udp_host))
              : net.transport(id));
      core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
      cfg.wk_pull_port = dir[id].wk_pull_port;
      cfg.wk_offer_port = dir[id].wk_offer_port;
      nodes.push_back(std::make_unique<core::Node>(
          cfg, ids[id], dir, *transports.back(), rng.next(),
          [this](const core::Node::Delivery& d) {
            delivered.fetch_add(1);
            if (!d.msg.payload.empty() && d.msg.payload[0] == kMark) {
              marked.fetch_add(1);
            }
          }));
      (id < split ? *reactor : *peer).add_node(*nodes.back(), rng.next());
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  /// Both runtimes stop before either is destroyed: a running one may still
  /// be delivering into the other's sockets.
  ~Fleet() {
    reactor->stop();
    if (peer) peer->stop();
  }
};

/// Fast rounds on `shards` event loops.
ReactorConfig fleet_config(std::size_t shards) {
  ReactorConfig rc;
  rc.round = 60ms;
  rc.shards = shards;
  return rc;
}

util::ByteSpan text(const char* s) {
  return util::ByteSpan(reinterpret_cast<const std::uint8_t*>(s),
                        std::strlen(s));
}

TEST(Reactor, ShardCountResolution) {
  // An explicit count is honoured, even above this host's core count.
  for (std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    Fleet f(4, false, 8300, fleet_config(k));
    f.reactor->start();
    EXPECT_EQ(f.reactor->shard_count(), k);
    f.reactor->stop();
  }
  // There is no auto value: 0 is rejected in every build, as is a worker
  // pool.
  EXPECT_THROW(ReactorRuntime rt(fleet_config(0)), std::invalid_argument);
  ReactorConfig pool = fleet_config(1);
  pool.workers = 2;
  EXPECT_THROW(ReactorRuntime rt(pool), std::invalid_argument);
}

// ---- every fleet test at one shard and at four ---------------------------

/// One shard is one loop thread with no rings; four shards send most gossip
/// across the SPSC rings. ctest runs the two instances concurrently, so each
/// binds its own UDP port block.
class ReactorFleet : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] ReactorConfig config() const {
    return fleet_config(GetParam());
  }
  [[nodiscard]] std::uint16_t udp_port() const {
    return static_cast<std::uint16_t>(28000 + 100 * GetParam());
  }
};

TEST_P(ReactorFleet, DisseminationOverMemNetwork) {
  Fleet f(6, false, 9300, config());
  f.reactor->start();
  f.reactor->multicast(0, text("live"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 5; }, 5000ms));
  f.reactor->stop();
  EXPECT_EQ(f.delivered.load(), 5);
}

TEST_P(ReactorFleet, DisseminationOverUdp) {
  Fleet f(5, true, udp_port(), config());
  f.reactor->start();
  f.reactor->multicast(1, text("udp"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 4; }, 5000ms));
  f.reactor->stop();
}

TEST_P(ReactorFleet, StopDetachesAndRestartWorks) {
  Fleet f(4, false, 9500, config());
  f.reactor->start();
  f.reactor->stop();
  f.reactor->stop();  // idempotent
  EXPECT_FALSE(f.reactor->running());
  f.reactor->start();  // same shards, rebuilt handoff mesh
  f.reactor->multicast(0, text("x"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  f.reactor->stop();
}

TEST_P(ReactorFleet, RoundTicksTrackConfiguredRoundWithoutDrift) {
  ReactorConfig rc = config();
  rc.round = 50ms;
  rc.jitter = 0.0;  // deterministic period: interval spread is pure slop
  Fleet f(4, false, 9600, rc);
  f.reactor->start();
  std::this_thread::sleep_for(1050ms);
  f.reactor->stop();

  const auto& reg = f.nodes[0]->registry();
  const auto ticks = reg.counter_value("runner.ticks");
  // Drift-free absolute deadlines: ~20 ticks of 50 ms in 1.05 s. The old
  // sleep-polling runner re-armed from now(), losing its poll interval each
  // tick; heavy load can still delay the loop, so the lower bound is loose.
  EXPECT_GE(ticks, 15u);
  EXPECT_LE(ticks, 22u);
  const double mean_us = reg.histogram_mean("runner.tick_interval_us");
  EXPECT_GE(mean_us, 47'000.0);
  EXPECT_LT(mean_us, 60'000.0);
  // Dispatch latency was recorded for every tick.
  EXPECT_EQ(reg.histogram_count("reactor.dispatch_us"), ticks);
}

TEST_P(ReactorFleet, RegistryCountersReflectProgress) {
  Fleet f(4, false, 9700, config());
  f.reactor->start();
  f.reactor->multicast(0, text("s"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  f.reactor->stop();

  // Deliveries are readiness-driven, so they can all land before any round
  // ticks — only the delivered totals are guaranteed here.
  std::uint64_t delivered = 0;
  for (const auto& node : f.nodes) {
    delivered += node->registry().counter_value("node.delivered");
  }
  EXPECT_GE(delivered, 3u);
}

TEST_P(ReactorFleet, TelemetryMergedIntoLoopRegistry) {
  Fleet f(6, false, 9800, config());
  f.reactor->start();
  f.reactor->multicast(0, text("m"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 5; }, 5000ms));
  f.reactor->stop();

  // stop() folds each shard's registry into loop_registry(): the loop
  // counters, the timer-slop histogram and the handoff telemetry. With
  // several shards, node 0's message cannot reach the other shards' nodes
  // without ring handoffs; one shard has no rings at all.
  const auto& reg = f.reactor->loop_registry();
  EXPECT_EQ(reg.gauge_value("reactor.shards"),
            static_cast<double>(GetParam()));
  EXPECT_GT(reg.counter_value("loop.wakeups"), 0u);
  EXPECT_GT(reg.counter_value("loop.timers_fired"), 0u);
  EXPECT_GT(reg.histogram_count("loop.timer_slop_us"), 0u);
  EXPECT_GT(reg.counter_value("reactor.shard.batches"), 0u);
  if (GetParam() == 1) {
    EXPECT_EQ(reg.counter_value("reactor.shard.ring_handoffs"), 0u);
  } else {
    EXPECT_GT(reg.counter_value("reactor.shard.ring_handoffs"), 0u);
  }
}

TEST_P(ReactorFleet, WithNodeGivesExclusiveAccess) {
  Fleet f(4, false, 9200, config());
  f.reactor->start();
  f.reactor->multicast(0, text("y"));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 5000ms));
  // Reads a registry the node's shard keeps writing; with_node() holds the
  // node for the duration.
  EXPECT_TRUE(eventually(
      [&] {
        std::uint64_t rounds = 0;
        f.reactor->with_node(2, [&](core::Node& n) {
          rounds = n.registry().counter_value("node.rounds");
        });
        return rounds >= 1;
      },
      5000ms));
  f.reactor->stop();
}

// Two runtimes over one MemNetwork. A's shard threads deliver into B's
// sockets, so they run B's MemSocket ready callbacks, which post to B's
// loops — while B stops and restarts over and over. A callback that was
// already running when stop() detached it may still post afterwards, so B's
// loops must outlive every stop(); under TSan this fails if stop() tears a
// shard down.
TEST_P(ReactorFleet, RestartsWhileAnotherRuntimeDeliversIntoIt) {
  Fleet f(8, false, 9900, config(), /*split=*/4);
  ReactorRuntime& a = *f.reactor;  // nodes 0-3
  ReactorRuntime& b = *f.peer;     // nodes 4-7
  a.start();
  b.start();
  std::atomic<bool> done{false};
  std::thread source([&] {
    for (std::uint8_t i = 0; !done.load();
         i = static_cast<std::uint8_t>((i + 1) % 128)) {
      a.multicast(i % a.size(), util::ByteSpan(&i, 1));
      std::this_thread::sleep_for(5ms);
    }
  });
  for (int cycle = 0; cycle < 20; ++cycle) {
    b.stop();
    b.start();
    std::this_thread::sleep_for(10ms);
  }
  done.store(true);
  source.join();

  // Both runtimes still disseminate: a marked message from each side
  // reaches the other seven nodes.
  const std::uint8_t from_b[] = {Fleet::kMark, 'b'};
  const std::uint8_t from_a[] = {Fleet::kMark, 'a'};
  b.multicast(0, util::ByteSpan(from_b));
  a.multicast(0, util::ByteSpan(from_a));
  EXPECT_TRUE(eventually([&] { return f.marked.load() >= 14; }, 10000ms));
  a.stop();
  b.stop();
  EXPECT_EQ(f.marked.load(), 14);
}

INSTANTIATE_TEST_SUITE_P(Shards, ReactorFleet,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return std::to_string(p.param);
                         });

}  // namespace
}  // namespace drum::runtime

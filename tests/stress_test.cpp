// Multi-threaded stress for the runtime layer — the test scripts/check.sh
// runs under ThreadSanitizer (DRUM_SANITIZE=thread). Application threads
// hammer ReactorRuntime's thread-safe surface (multicast / with_node / stop)
// while its shard threads drive the protocol over the thread-safe
// MemNetwork; TSan verifies the node mutexes, lifecycle_mu_ and the atomics
// actually cover every shared access. Notably: concurrent stop() calls used
// to race on thread join.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/check/check.hpp"
#include "drum/net/event_loop.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/runtime/reactor.hpp"

// Sanitizer instrumentation slows the hot path ~10x; throughput-sensitive
// tests scale their flood pacing and deadlines by this factor so the TSan
// leg keeps the race coverage without the wall-clock expectation.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DRUM_TEST_SANITIZED 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DRUM_TEST_SANITIZED 1
#endif

namespace drum::runtime {
namespace {

using namespace std::chrono_literals;

#if defined(DRUM_TEST_SANITIZED)
constexpr int kSanSlowdown = 8;
#else
constexpr int kSanSlowdown = 1;
#endif

struct Fleet {
  util::Rng rng{77};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::unique_ptr<ReactorRuntime> reactor;
  std::atomic<int> delivered{0};

  /// n nodes on one single-shard runtime with 30 ms rounds.
  explicit Fleet(std::size_t n, std::uint16_t base_port = 9300) {
    // Every fleet re-creates the same identities from the same seed: open a
    // new nonce-tracker window so one process can run many fleets.
    check::reset_nonce_tracker();
    dir.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 id,
                 static_cast<std::uint16_t>(base_port + 2 * id),
                 static_cast<std::uint16_t>(base_port + 2 * id + 1),
                 0,
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    ReactorConfig rc;
    rc.round = 30ms;
    reactor = std::make_unique<ReactorRuntime>(rc);
    for (std::uint32_t id = 0; id < n; ++id) {
      transports.push_back(net.transport(id));
      core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
      cfg.wk_pull_port = dir[id].wk_pull_port;
      cfg.wk_offer_port = dir[id].wk_offer_port;
      nodes.push_back(std::make_unique<core::Node>(
          cfg, ids[id], dir, *transports.back(), rng.next(),
          [this](const core::Node::Delivery&) { delivered.fetch_add(1); }));
      reactor->add_node(*nodes.back(), rng.next());
    }
  }
};

bool eventually(const std::function<bool()>& cond,
                std::chrono::milliseconds deadline) {
  auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

// Several application threads multicast and read stats through the same
// runtime while the protocol runs. Everything here must be TSan-clean.
TEST(Stress, ConcurrentMulticastAndWithNode) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  Fleet f(4);
  f.reactor->start();

  std::vector<std::thread> apps;
  std::atomic<std::uint64_t> rounds_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&f, &rounds_seen, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto which = static_cast<std::size_t>(t + i) % f.nodes.size();
        const std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                         static_cast<std::uint8_t>(i)};
        f.reactor->multicast(which, util::ByteSpan(payload, sizeof payload));
        f.reactor->with_node(
            (which + 1) % f.nodes.size(), [&rounds_seen](core::Node& n) {
              rounds_seen.fetch_add(n.registry().counter_value("node.rounds"));
            });
      }
    });
  }
  for (auto& t : apps) t.join();

  // Each of the 32 distinct messages reaches the other 3 nodes.
  EXPECT_TRUE(eventually(
      [&] { return f.delivered.load() >= kThreads * kPerThread * 3; },
      10000ms));
  f.reactor->stop();
  EXPECT_EQ(f.delivered.load(), kThreads * kPerThread * 3);
}

// Many threads stop the same runtime at once: stop() must be idempotent
// and join exactly once.
TEST(Stress, ConcurrentStopFromManyThreads) {
  Fleet f(4, 9400);
  f.reactor->start();
  f.reactor->multicast(0, util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("s"), 1));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 3; }, 10000ms));

  std::vector<std::thread> stoppers;
  for (int t = 0; t < 6; ++t) {
    stoppers.emplace_back([&f] { f.reactor->stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(f.reactor->running());

  // The fleet is restartable after the pile-up.
  f.reactor->start();
  f.reactor->multicast(1, util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("t"), 1));
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 6; }, 10000ms));
  f.reactor->stop();
}

// Start/stop churn concurrent with with_node readers: lifecycle transitions
// must never tear the node state or deadlock against the node mutex.
TEST(Stress, StartStopChurnWithReaders) {
  Fleet f(3, 9500);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (std::size_t i = 0; i < f.nodes.size(); ++i) {
        f.reactor->with_node(i, [](core::Node& n) {
          (void)n.registry().counter_value("node.rounds");
        });
      }
      std::this_thread::sleep_for(1ms);
    }
  });
  for (int cycle = 0; cycle < 5; ++cycle) {
    f.reactor->start();
    f.reactor->multicast(
        static_cast<std::size_t>(cycle) % f.nodes.size(),
        util::ByteSpan(reinterpret_cast<const std::uint8_t*>("c"), 1));
    std::this_thread::sleep_for(20ms);
    f.reactor->stop();
  }
  done.store(true);
  reader.join();
  // 5 messages, each delivered to the other 2 nodes — eventually, because
  // dissemination may complete on a later cycle's rounds.
  f.reactor->start();
  EXPECT_TRUE(eventually([&] { return f.delivered.load() >= 10; }, 10000ms));
  f.reactor->stop();
}

// ReactorRuntime under TSan: one shard drives 8 nodes while application
// threads multicast / read through with_node and an attacker thread floods
// spoofed datagrams. Exercises the reactor's cross-thread edges at one
// shard: MemSocket readiness from foreign threads (sender thread -> post
// queue -> shard), the scheduled/ready/round_due flags, the per-round
// socket rotation hooks, and lifecycle stop/start races.
TEST(Stress, ReactorConcurrentMulticastFloodAndChurn) {
  constexpr std::size_t kNodes = 8;
  util::Rng rng{99};
  net::MemNetwork mem;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir(kNodes);
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::atomic<int> delivered{0};
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    ids.push_back(crypto::Identity::generate(rng));
    dir[id] = {id,
               id,
               static_cast<std::uint16_t>(9600 + 2 * id),
               static_cast<std::uint16_t>(9600 + 2 * id + 1),
               0,
               ids[id].sign_public(),
               ids[id].dh_public(),
               true};
  }
  ReactorConfig rc;
  rc.round = 30ms;
  ReactorRuntime reactor(rc);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    transports.push_back(mem.transport(id));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = dir[id].wk_pull_port;
    cfg.wk_offer_port = dir[id].wk_offer_port;
    nodes.push_back(std::make_unique<core::Node>(
        cfg, ids[id], dir, *transports.back(), rng.next(),
        [&delivered](const core::Node::Delivery&) {
          delivered.fetch_add(1);
        }));
    reactor.add_node(*nodes.back(), rng.next());
  }
  reactor.start();

  std::atomic<bool> flood_stop{false};
  std::thread attacker([&] {
    util::Rng arng{123};
    util::Bytes junk(40);
    while (!flood_stop.load()) {
      for (auto& b : junk) b = static_cast<std::uint8_t>(arng.below(256));
      const auto victim = static_cast<std::uint32_t>(arng.below(kNodes));
      mem.send_raw(
          {0xBAD00000u | static_cast<std::uint32_t>(arng.below(4096)),
           static_cast<std::uint16_t>(1024 + arng.below(60000))},
          {victim, dir[victim].wk_offer_port}, util::ByteSpan(junk));
      std::this_thread::sleep_for(1ms);
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 6;
  std::vector<std::thread> apps;
  std::atomic<std::uint64_t> rounds_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto which = static_cast<std::size_t>(t + i) % kNodes;
        const std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                         static_cast<std::uint8_t>(i)};
        reactor.multicast(which, util::ByteSpan(payload, sizeof payload));
        reactor.with_node((which + 1) % kNodes,
                          [&rounds_seen](core::Node& n) {
                            rounds_seen.fetch_add(
                                n.registry().counter_value("node.rounds"));
                          });
      }
    });
  }
  for (auto& t : apps) t.join();

  const int expect = kThreads * kPerThread * (kNodes - 1);
  EXPECT_TRUE(
      eventually([&] { return delivered.load() >= expect; }, 15000ms));
  flood_stop.store(true);
  attacker.join();

  // Concurrent stop pile-up, then restart.
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&reactor] { reactor.stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(reactor.running());
  reactor.start();
  reactor.multicast(0, util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("z"), 1));
  EXPECT_TRUE(eventually(
      [&] { return delivered.load() >= expect + int(kNodes) - 1; },
      10000ms));
  reactor.stop();
  EXPECT_EQ(delivered.load(), expect + int(kNodes) - 1);
}

// Cross-node ingress batching under TSan: with more runnable nodes than
// shards, each shard runs the DESIGN.md §12 pipeline across a batch of its
// nodes — drain A under A.mu, drain B under B.mu, one lock-free crypto pass
// over both nodes' frames, then re-lock each to ingest. Attacker and
// application threads keep delivering into those nodes and multicasting
// through them while their shard verifies with no node lock held. TSan
// checks that the drained IngressBatch really is private to its shard and
// that every node entry stays under st.mu.
TEST(Stress, ReactorCrossNodeBatchAccumulation) {
  constexpr std::size_t kNodes = 12;
  util::Rng rng{101};
  net::MemNetwork mem;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir(kNodes);
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::atomic<int> delivered{0};
  // What was multicast and which node delivered what, for the report
  // below when a delivery is missing.
  check::Mutex log_mu;
  std::vector<core::MessageId> sent;
  std::set<std::pair<std::uint32_t, core::MessageId>> received;
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    ids.push_back(crypto::Identity::generate(rng));
    dir[id] = {id,
               id,
               static_cast<std::uint16_t>(9700 + 2 * id),
               static_cast<std::uint16_t>(9700 + 2 * id + 1),
               0,
               ids[id].sign_public(),
               ids[id].dh_public(),
               true};
  }
  ReactorConfig rc;
  rc.round = 20ms;
  rc.shards = 3;
  ReactorRuntime reactor(rc);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    transports.push_back(mem.transport(id));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = dir[id].wk_pull_port;
    cfg.wk_offer_port = dir[id].wk_offer_port;
    nodes.push_back(std::make_unique<core::Node>(
        cfg, ids[id], dir, *transports.back(), rng.next(),
        [&delivered, &log_mu, &received, id](const core::Node::Delivery& d) {
          {
            check::MutexLock lock(log_mu);
            received.emplace(id, d.msg.id);
          }
          delivered.fetch_add(1);
        }));
    reactor.add_node(*nodes.back(), rng.next());
  }
  reactor.start();

  // Two attacker threads sweep ALL nodes back-to-back so each shard holds
  // many ready nodes at once — the precondition for a multi-node batch.
  std::atomic<bool> flood_stop{false};
  std::vector<std::thread> attackers;
  for (int a = 0; a < 2; ++a) {
    attackers.emplace_back([&, a] {
      util::Rng arng{500u + static_cast<unsigned>(a)};
      util::Bytes junk(48);
      while (!flood_stop.load()) {
        for (auto& b : junk) b = static_cast<std::uint8_t>(arng.below(256));
        for (std::uint32_t victim = 0; victim < kNodes; ++victim) {
          mem.send_raw({0xBAD00000u | victim,
                        static_cast<std::uint16_t>(1024 + arng.below(60000))},
                       {victim, a == 0 ? dir[victim].wk_offer_port
                                       : dir[victim].wk_pull_port},
                       util::ByteSpan(junk));
        }
        // Burst-then-pause: the all-nodes burst is what piles the ready
        // lists up (multi-node batches); the pause leaves honest control
        // traffic enough budget to finish in test time.
        std::this_thread::sleep_for(3ms * kSanSlowdown);
      }
    });
  }

  // Multicast churn from two app threads: real signed data flows through
  // the same batched verify as the flood's garbage.
  constexpr int kThreads = 2;
  constexpr int kPerThread = 8;
  std::vector<std::thread> apps;
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto which = static_cast<std::size_t>(t + 2 * i) % kNodes;
        const std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                         static_cast<std::uint8_t>(i)};
        const core::MessageId id =
            reactor.multicast(which, util::ByteSpan(payload, sizeof payload));
        {
          check::MutexLock lock(log_mu);
          sent.push_back(id);
        }
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  for (auto& t : apps) t.join();

  const int expect = kThreads * kPerThread * (int(kNodes) - 1);
  const bool all_delivered = eventually(
      [&] { return delivered.load() >= expect; }, 20000ms * kSanSlowdown);
  flood_stop.store(true);
  for (auto& t : attackers) t.join();
  reactor.stop();
  // Evaluated only on failure, with every shard thread stopped: the missing
  // (message, node) pairs, then each node's rounds and budget counters. The
  // suspected, unconfirmed cause of a miss: a message lives 10 rounds in a
  // buffer, 200 ms at these 20 ms rounds, so a host stall may expire it
  // before it reaches every node.
  auto missing_report = [&] {
    check::MutexLock lock(log_mu);
    std::ostringstream out;
    out << "missing (source:seqno -> node):";
    for (const core::MessageId& m : sent) {
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        if (n != m.source && !received.contains({n, m})) {
          out << ' ' << m.source << ':' << m.seqno << "->" << n;
        }
      }
    }
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const obs::MetricsRegistry& reg = nodes[n]->registry();
      std::uint64_t exhausted = 0;
      for (const char* chan :
           {"offer", "pull_req", "push_reply", "pull_data", "push_data"}) {
        exhausted += reg.counter_value(std::string("chan.") + chan +
                                       ".budget_exhausted");
      }
      out << "\nnode " << n << ": round " << nodes[n]->round()
          << ", flushed_unread "
          << reg.counter_value("node.flushed_unread")
          << ", budget_exhausted " << exhausted;
    }
    return out.str();
  };
  EXPECT_TRUE(all_delivered) << missing_report();
  EXPECT_EQ(delivered.load(), expect);
}

// First contacts pooled across co-hosted nodes: without prewarm, every
// node meets its peers on ingress, so each shard's crypto pass derives the
// pair keys of several nodes in one call (IngressBatch::verify), with no
// node lock held, while application threads multicast through the same
// nodes. TSan checks that the derivation touches no node state and that the
// keys reach their nodes' caches only under st.mu. No flood, so no budget
// runs out: fan-out four reaches all ten nodes within a few of the ten
// rounds a message lives in a buffer, and every pair is delivered.
TEST(Stress, ReactorPooledFirstContactsDeliverEveryPair) {
  constexpr std::size_t kNodes = 10;
  util::Rng rng{103};
  net::MemNetwork mem;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir(kNodes);
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::atomic<int> delivered{0};
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    ids.push_back(crypto::Identity::generate(rng));
    dir[id] = {id,
               id,
               static_cast<std::uint16_t>(9900 + 2 * id),
               static_cast<std::uint16_t>(9900 + 2 * id + 1),
               0,
               ids[id].sign_public(),
               ids[id].dh_public(),
               true};
  }
  ReactorConfig rc;
  rc.round = 20ms;
  rc.shards = 2;
  ReactorRuntime reactor(rc);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    transports.push_back(mem.transport(id));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = dir[id].wk_pull_port;
    cfg.wk_offer_port = dir[id].wk_offer_port;
    nodes.push_back(std::make_unique<core::Node>(
        cfg, ids[id], dir, *transports.back(), rng.next(),
        [&delivered](const core::Node::Delivery&) { delivered.fetch_add(1); }));
    reactor.add_node(*nodes.back(), rng.next());
  }
  reactor.start();

  constexpr int kThreads = 2;
  constexpr int kPerThread = 5;
  std::vector<std::thread> apps;
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto which = static_cast<std::size_t>(3 * t + 2 * i) % kNodes;
        const std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                         static_cast<std::uint8_t>(i)};
        reactor.multicast(which, util::ByteSpan(payload, sizeof payload));
        std::this_thread::sleep_for(3ms);
      }
    });
  }
  for (auto& t : apps) t.join();

  const int expect = kThreads * kPerThread * (int(kNodes) - 1);
  const bool all_delivered = eventually(
      [&] { return delivered.load() >= expect; }, 20000ms * kSanSlowdown);
  reactor.stop();
  EXPECT_TRUE(all_delivered) << delivered.load() << " of " << expect;
  EXPECT_EQ(delivered.load(), expect);
  // Some pass derived first contacts, and every node's keys equal its
  // identity's derivation (checked through the boxes: none failed).
  EXPECT_GT(reactor.loop_registry().histogram_count(
                "reactor.shard.pair_keys_per_pass"),
            0u);
  for (const auto& n : nodes) {
    EXPECT_EQ(n->registry().counter_value("node.box_failures"), 0u);
  }
}

/// Busy-waits `d`: sleep_for cannot pause a few microseconds.
void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

// EventLoop's wake rule (DESIGN.md §8): a foreign thread that queues a
// MemSocket writes the loop's eventfd only when it finds the loop parked in
// epoll_wait. A producer sends one datagram at a time and waits for the
// loop's callback to drain it before sending the next, so every send needs
// its own wakeup. Random pauses on both sides land sends while the loop is
// parked, while it is about to park, and while it runs; a lost wakeup
// leaves a datagram undrained and fails the wait.
TEST(Stress, ParkedLoopWakesForEveryForeignNotify) {
  constexpr int kSends = 20000 / kSanSlowdown;
  net::MemNetwork mem;
  auto tr = mem.transport(1);
  auto sock = tr->bind(100).take();
  ASSERT_NE(sock, nullptr);

  net::EventLoop loop;
  std::atomic<int> drained{0};
  loop.add_socket(*sock, [&] {
    while (sock->recv()) drained.fetch_add(1);
  });
  util::Rng loop_rng{5};  // loop thread only
  loop.set_cycle_callback(
      [&] { spin_for(std::chrono::microseconds(
          static_cast<std::int64_t>(loop_rng.below(51)))); });
  std::thread runner([&] { loop.run(); });

  util::Rng rng{9};
  const util::Bytes msg{1};
  // Waits up to 2 s for the loop to have drained `want` datagrams.
  auto drained_by = [&](int want) {
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (drained.load() < want) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  int sent = 0;
  bool kept_up = true;
  while (kept_up && sent < kSends) {
    spin_for(std::chrono::microseconds(static_cast<std::int64_t>(rng.below(51))));
    mem.send_raw({9, 9}, {1, 100}, util::ByteSpan(msg));
    kept_up = drained_by(++sent);
  }
  loop.stop();
  runner.join();
  EXPECT_TRUE(kept_up) << "datagram " << sent << " of " << kSends
                       << " waited 2 s for its wakeup";
  EXPECT_EQ(sent, kSends);
}

// The sharded twin of ReactorConcurrentMulticastFloodAndChurn: four
// independent event-loop shards (forced even on a 1-core host), so every
// multicast readies sockets on other shards' loops while a spoofed flood
// hammers the well-known ports from a foreign thread and app threads
// multicast and read telemetry concurrently. Ends with the same stop
// pile-up + restart.
TEST(Stress, ReactorShardedFloodAndChurn) {
  constexpr std::size_t kNodes = 8;
  util::Rng rng{77};
  net::MemNetwork mem;
  std::vector<crypto::Identity> ids;
  std::vector<core::Peer> dir(kNodes);
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::atomic<int> delivered{0};
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    ids.push_back(crypto::Identity::generate(rng));
    dir[id] = {id,
               id,
               static_cast<std::uint16_t>(9800 + 2 * id),
               static_cast<std::uint16_t>(9800 + 2 * id + 1),
               0,
               ids[id].sign_public(),
               ids[id].dh_public(),
               true};
  }
  ReactorConfig rc;
  rc.round = 30ms;
  rc.shards = 4;  // 2 nodes per shard: most gossip crosses a shard boundary
  ReactorRuntime reactor(rc);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    transports.push_back(mem.transport(id));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = dir[id].wk_pull_port;
    cfg.wk_offer_port = dir[id].wk_offer_port;
    nodes.push_back(std::make_unique<core::Node>(
        cfg, ids[id], dir, *transports.back(), rng.next(),
        [&delivered](const core::Node::Delivery&) {
          delivered.fetch_add(1);
        }));
    reactor.add_node(*nodes.back(), rng.next());
  }
  reactor.start();
  EXPECT_EQ(reactor.shard_count(), 4u);

  std::atomic<bool> flood_stop{false};
  std::thread attacker([&] {
    util::Rng arng{321};
    util::Bytes junk(40);
    while (!flood_stop.load()) {
      for (auto& b : junk) b = static_cast<std::uint8_t>(arng.below(256));
      const auto victim = static_cast<std::uint32_t>(arng.below(kNodes));
      mem.send_raw(
          {0xBAD00000u | static_cast<std::uint32_t>(arng.below(4096)),
           static_cast<std::uint16_t>(1024 + arng.below(60000))},
          {victim, dir[victim].wk_offer_port}, util::ByteSpan(junk));
      std::this_thread::sleep_for(1ms);
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 6;
  std::vector<std::thread> apps;
  std::atomic<std::uint64_t> rounds_seen{0};
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto which = static_cast<std::size_t>(t + i) % kNodes;
        const std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                         static_cast<std::uint8_t>(i)};
        reactor.multicast(which, util::ByteSpan(payload, sizeof payload));
        reactor.with_node((which + 1) % kNodes,
                          [&rounds_seen](core::Node& n) {
                            rounds_seen.fetch_add(
                                n.registry().counter_value("node.rounds"));
                          });
      }
    });
  }
  for (auto& t : apps) t.join();

  const int expect = kThreads * kPerThread * (kNodes - 1);
  EXPECT_TRUE(
      eventually([&] { return delivered.load() >= expect; },
                 15000ms * kSanSlowdown));
  flood_stop.store(true);
  attacker.join();

  // Concurrent stop pile-up, then restart with the same shard plan.
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 4; ++t) {
    stoppers.emplace_back([&reactor] { reactor.stop(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_FALSE(reactor.running());
  reactor.start();
  EXPECT_EQ(reactor.shard_count(), 4u);
  reactor.multicast(0, util::ByteSpan(
      reinterpret_cast<const std::uint8_t*>("z"), 1));
  EXPECT_TRUE(eventually(
      [&] { return delivered.load() >= expect + int(kNodes) - 1; },
      10000ms * kSanSlowdown));
  reactor.stop();
  EXPECT_EQ(delivered.load(), expect + int(kNodes) - 1);
}

}  // namespace
}  // namespace drum::runtime

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
#include <thread>
#include <vector>

#include "drum/net/mem_transport.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/util/spsc_ring.hpp"

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
        [&delivered](const core::Node::Delivery&) {
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
        reactor.multicast(which, util::ByteSpan(payload, sizeof payload));
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  for (auto& t : apps) t.join();

  const int expect = kThreads * kPerThread * (int(kNodes) - 1);
  EXPECT_TRUE(
      eventually([&] { return delivered.load() >= expect; },
                 20000ms * kSanSlowdown));
  flood_stop.store(true);
  for (auto& t : attackers) t.join();
  reactor.stop();
  EXPECT_EQ(delivered.load(), expect);
}

// Two-thread SpscRing hammer: one producer pushing a strictly increasing
// sequence, one consumer asserting it pops exactly that sequence — no loss,
// no duplication, no reordering. A small capacity forces constant
// full/empty transitions, which is where the cached-index fast path hands
// over to the acquire reload; TSan checks the release/acquire pairing is
// the whole story.
TEST(Stress, SpscRingTwoThreadFifoHammer) {
  constexpr std::uint64_t kItems = 200000 / kSanSlowdown;
  util::SpscRing<std::uint64_t> ring(16);
  std::thread producer([&ring] {
    ring.assume_producer();
    for (std::uint64_t i = 0; i < kItems;) {
      if (ring.try_push(i)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  ring.assume_consumer();
  while (expected < kItems) {
    std::uint64_t v = 0;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// The sharded reactor's handoff mesh in miniature: S "shards", one ring per
// ordered pair, each shard thread both produces into its S-1 outbound rings
// and consumes from its S-1 inbound rings. The property under test is the
// guarantee cross-shard dispatch relies on for per-sender FIFO delivery:
// every (producer, consumer) stream arrives in push order, regardless of
// how the mesh interleaves globally.
TEST(Stress, SpscHandoffMeshPreservesPerProducerFifo) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kPerStream = 20000 / kSanSlowdown;

  struct Item {
    std::uint32_t producer = 0;
    std::uint64_t seq = 0;
  };
  // rings[p][c] carries p -> c traffic (diagonal unused, same-shard work
  // never touches a ring).
  std::vector<std::vector<std::unique_ptr<util::SpscRing<Item>>>> rings(
      kShards);
  for (std::size_t p = 0; p < kShards; ++p) {
    for (std::size_t c = 0; c < kShards; ++c) {
      rings[p].push_back(p == c ? nullptr
                                : std::make_unique<util::SpscRing<Item>>(64));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> shards;
  for (std::size_t me = 0; me < kShards; ++me) {
    shards.emplace_back([&, me] {
      for (std::size_t other = 0; other < kShards; ++other) {
        if (other == me) continue;
        rings[me][other]->assume_producer();
        rings[other][me]->assume_consumer();
      }
      std::uint64_t sent[kShards];       // per-outbound-stream seq pushed
      std::uint64_t last_seen[kShards];  // per-inbound-stream high water
      std::uint64_t received[kShards];   // per-inbound-stream count
      for (std::size_t i = 0; i < kShards; ++i) {
        sent[i] = 0;
        last_seen[i] = 0;
        received[i] = 0;
      }
      const std::uint64_t want_in = kPerStream * (kShards - 1);
      std::uint64_t total_in = 0;
      bool done_out = false;
      while (!done_out || total_in < want_in) {
        // Advance every outbound stream by one where there is room (a full
        // ring just retries later — the reactor's real fallback is
        // loop.post). Streams progress independently, exercising full-ring
        // back-pressure without coupling consumers to each other.
        done_out = true;
        for (std::size_t other = 0; other < kShards; ++other) {
          if (other == me || sent[other] >= kPerStream) continue;
          Item it{static_cast<std::uint32_t>(me), sent[other] + 1};
          if (rings[me][other]->try_push(it)) ++sent[other];
          if (sent[other] < kPerStream) done_out = false;
        }
        // Drain every inbound ring, asserting per-producer monotonicity.
        for (std::size_t other = 0; other < kShards; ++other) {
          if (other == me) continue;
          Item it;
          while (rings[other][me]->try_pop(it)) {
            if (it.producer != other || it.seq != last_seen[other] + 1) {
              failures.fetch_add(1);
            }
            last_seen[other] = it.seq;
            ++received[other];
            ++total_in;
          }
        }
        std::this_thread::yield();
      }
      for (std::size_t other = 0; other < kShards; ++other) {
        if (other != me && received[other] != kPerStream) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : shards) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The sharded twin of ReactorConcurrentMulticastFloodAndChurn: four
// independent event-loop shards (forced even on a 1-core host), so every
// multicast fans out through the cross-shard SPSC rings while a spoofed
// flood hammers the well-known ports and app threads multicast and read
// telemetry concurrently. Ends with the same stop pile-up + restart, which
// rebuilds the whole handoff mesh.
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

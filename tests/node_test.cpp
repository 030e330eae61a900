// Focused Node-level tests: construction contracts, manual round driving
// over the in-memory network, per-channel budget enforcement, port rotation,
// directory updates, and rejection of invalid input — below the harness
// layer, so failures localize precisely.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "drum/check/check.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/mem_transport.hpp"

namespace drum::core {
namespace {

// One full ingress cycle, the way a standalone driver runs the DESIGN.md §12
// pipeline: drain this node's sockets into a private batch, verify, ingest.
void poll_node(Node& n) {
  ingress::IngressBatch batch;
  n.drain_ingress(batch);
  batch.dispatch();
}

struct Pair {
  util::Rng rng{5};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::vector<Node::Delivery>> got;
  /// Optional per-delivery hook — runs on the delivering thread, inside the
  /// node's ingest(). Lets tests observe or act while a node is "entered".
  std::function<void(std::uint32_t, const Node::Delivery&)> on_delivery;

  explicit Pair(std::size_t n, Variant v = Variant::kDrum) {
    // Fresh world, deliberately re-seeded: open a new nonce-tracker window
    // (same seed => same keys and nonce streams as the previous fixture).
    check::reset_nonce_tracker();
    dir.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 id,
                 static_cast<std::uint16_t>(3000 + 3 * id),
                 static_cast<std::uint16_t>(3001 + 3 * id),
                 static_cast<std::uint16_t>(3002 + 3 * id),
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    got.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      transports.push_back(net.transport(id));
      NodeConfig cfg = make_node_config(v, id);
      cfg.wk_pull_port = dir[id].wk_pull_port;
      cfg.wk_offer_port = dir[id].wk_offer_port;
      cfg.wk_pull_reply_port = dir[id].wk_pull_reply_port;
      nodes.push_back(std::make_unique<Node>(
          cfg, ids[id], dir, *transports.back(), rng.next(),
          [this, id](const Node::Delivery& d) {
            got[id].push_back(d);
            if (on_delivery) on_delivery(id, d);
          }));
    }
  }

  void run(std::size_t rounds, int sweeps = 4) {
    for (std::size_t r = 0; r < rounds; ++r) {
      for (auto& n : nodes) n->on_round();
      for (int s = 0; s < sweeps; ++s) {
        for (auto& n : nodes) poll_node(*n);
      }
    }
  }
};

TEST(Node, RequiresIdIndexedDirectory) {
  util::Rng rng(1);
  net::MemNetwork net;
  auto tr = net.transport(0);
  auto id = crypto::Identity::generate(rng);
  std::vector<Peer> bad_dir(2);
  bad_dir[0].id = 1;  // mis-indexed
  bad_dir[1].id = 0;
  NodeConfig cfg = make_node_config(Variant::kDrum, 0);
  cfg.wk_pull_port = 100;
  cfg.wk_offer_port = 101;
  EXPECT_THROW(Node(cfg, id, bad_dir, *tr, 1, nullptr),
               std::invalid_argument);
}

TEST(Node, FailsOnTakenWellKnownPort) {
  util::Rng rng(2);
  net::MemNetwork net;
  auto tr = net.transport(0);
  auto blocker = tr->bind(100);
  ASSERT_TRUE(blocker);
  auto id = crypto::Identity::generate(rng);
  std::vector<Peer> dir(1);
  dir[0] = {0, 0, 100, 101, 0, id.sign_public(), id.dh_public(), true};
  NodeConfig cfg = make_node_config(Variant::kDrum, 0);
  cfg.wk_pull_port = 100;
  cfg.wk_offer_port = 101;
  EXPECT_THROW(Node(cfg, id, dir, *tr, 1, nullptr), std::runtime_error);
}

TEST(Node, MulticastAssignsSequentialIds) {
  Pair p(4);
  util::Bytes data = {1};
  auto a = p.nodes[0]->multicast(util::ByteSpan(data));
  auto b = p.nodes[0]->multicast(util::ByteSpan(data));
  EXPECT_EQ(a.source, 0u);
  EXPECT_EQ(b.seqno, a.seqno + 1);
  EXPECT_TRUE(p.nodes[0]->has_message(a));
  EXPECT_EQ(p.nodes[0]->buffered(), 2u);
}

TEST(Node, DeliversToAllAndExactlyOnce) {
  Pair p(6);
  util::Bytes data = {'m', 's', 'g'};
  p.nodes[2]->multicast(util::ByteSpan(data));
  p.run(6);
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    if (i == 2) continue;
    ASSERT_EQ(p.got[i].size(), 1u) << "node " << i;
    EXPECT_EQ(p.got[i][0].msg.payload, data);
    EXPECT_EQ(p.got[i][0].msg.id.source, 2u);
    EXPECT_GE(p.got[i][0].hops, 1u);
  }
}

#if DRUM_CHECKED
struct EntryFailure {};
[[noreturn]] void entry_failure_handler(check::Kind, const char*, const char*,
                                        int, const std::string&) {
  throw EntryFailure{};
}

// Regression for the entry guard (node.cpp EntryGuard): a second thread
// entering a node while another thread is inside the ingress cycle must trip
// DRUM_ASSERT instead of silently racing. The hook fires while the main
// thread is mid-ingest (delivery callbacks run inside ingest()), which is
// exactly the window the runtime's per-node mutex is supposed to close.
TEST(Node, CrossThreadEntryTripsTheGuard) {
  Pair p(4);
  std::atomic<bool> tripped{false};
  std::atomic<bool> probed{false};
  p.on_delivery = [&](std::uint32_t id, const Node::Delivery&) {
    if (probed.exchange(true)) return;
    std::thread intruder([&, id] {
      check::FailureHandler prev =
          check::set_failure_handler(&entry_failure_handler);
      util::Bytes data = {7};
      try {
        p.nodes[id]->multicast(util::ByteSpan(data));
      } catch (const EntryFailure&) {
        tripped.store(true);
      }
      check::set_failure_handler(prev);
    });
    intruder.join();  // main thread parks inside ingest() until probe ends
  };
  util::Bytes data = {1};
  p.nodes[0]->multicast(util::ByteSpan(data));
  p.run(4);
  EXPECT_TRUE(probed.load()) << "delivery hook never fired";
  EXPECT_TRUE(tripped.load())
      << "concurrent cross-thread node entry was not detected";
}

// The legal counterpart: the SAME thread may nest — an application
// multicasting from its delivery callback re-enters the node it is already
// inside, and the guard must recognize the owner and wave it through.
TEST(Node, SameThreadNestedMulticastIsLegal) {
  Pair p(4);
  std::atomic<bool> nested{false};
  p.on_delivery = [&](std::uint32_t id, const Node::Delivery&) {
    if (nested.exchange(true)) return;
    util::Bytes reply = {'r'};
    p.nodes[id]->multicast(util::ByteSpan(reply));  // nested entry
  };
  util::Bytes data = {1};
  p.nodes[0]->multicast(util::ByteSpan(data));
  p.run(6);
  EXPECT_TRUE(nested.load());
  // The nested multicast is a real message: it disseminates too.
  std::size_t reply_copies = 0;
  for (auto& deliveries : p.got) {
    for (auto& d : deliveries) {
      if (d.msg.payload == util::Bytes{'r'}) ++reply_copies;
    }
  }
  EXPECT_GE(reply_copies, 1u);
}
#endif  // DRUM_CHECKED

TEST(Node, PullOnlyAndPushOnlyAlsoDeliver) {
  for (auto v : {Variant::kPush, Variant::kPull}) {
    Pair p(6, v);
    util::Bytes data = {'x'};
    p.nodes[0]->multicast(util::ByteSpan(data));
    p.run(8);
    std::size_t received = 0;
    for (std::size_t i = 1; i < p.nodes.size(); ++i) {
      received += p.got[i].size();
    }
    EXPECT_EQ(received, 5u) << variant_name(v);
  }
}

TEST(Node, RoundCounterGrowsWithDistance) {
  // A message delivered after k rounds carries round counter ~k (paper §8.1).
  Pair p(8);
  util::Bytes data = {'h'};
  p.nodes[0]->multicast(util::ByteSpan(data));
  p.run(1);
  std::vector<std::uint32_t> first_wave;
  for (std::size_t i = 1; i < 8; ++i) {
    for (auto& d : p.got[i]) first_wave.push_back(d.hops);
  }
  ASSERT_FALSE(first_wave.empty());
  for (auto h : first_wave) EXPECT_LE(h, 2u);
  p.run(5);
  for (std::size_t i = 1; i < 8; ++i) {
    ASSERT_EQ(p.got[i].size(), 1u);
    EXPECT_LE(p.got[i][0].hops, 7u);
  }
}

// Directory with 3 peers but only node 0 live: a quiet network where the
// test controls every datagram (the Pair fixture's nodes gossip on their
// own, which perturbs exact budget counts).
struct Solo {
  util::Rng rng{5};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<Peer> dir;
  std::unique_ptr<net::Transport> transport;
  std::unique_ptr<Node> node;
  std::vector<Node::Delivery> got;

  explicit Solo(Variant v = Variant::kDrum) {
    check::reset_nonce_tracker();  // fresh deliberately re-seeded world
    dir.resize(3);
    for (std::uint32_t id = 0; id < 3; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 id,
                 static_cast<std::uint16_t>(3000 + 3 * id),
                 static_cast<std::uint16_t>(3001 + 3 * id),
                 static_cast<std::uint16_t>(3002 + 3 * id),
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    transport = net.transport(0);
    NodeConfig cfg = make_node_config(v, 0);
    cfg.wk_pull_port = 3000;
    cfg.wk_offer_port = 3001;
    cfg.wk_pull_reply_port = 3002;
    node = std::make_unique<Node>(
        cfg, ids[0], dir, *transport, rng.next(),
        [this](const Node::Delivery& d) { got.push_back(d); });
  }
};

TEST(Node, FloodedChannelIsBudgetBoundedPerRound) {
  // Declared before the node: ~Node still calls the hook.
  std::vector<std::pair<std::uint16_t, bool>> calls;  // (port, watch)
  Solo p;
  p.node->set_socket_hook([&calls](net::Socket& s, bool watch) {
    calls.emplace_back(s.local().port, watch);
  });
  ASSERT_EQ(calls.size(), 5u);  // replay: 2 well-known + 3 random ports
  calls.clear();
  // Flood node 0's pull-request port with garbage before its round.
  util::Bytes junk = {static_cast<std::uint8_t>(MsgType::kPullRequest), 9, 9};
  auto flood = [&](int n) {
    for (int i = 0; i < n; ++i) {
      p.net.send_raw(net::Address{77, 1}, net::Address{0, 3000},
                     util::ByteSpan(junk));
    }
  };
  flood(500);
  poll_node(*p.node);
  // Budget for pull-requests in Drum with F=4 is 2.
  EXPECT_EQ(p.node->registry().counter_value("node.datagrams_read"), 2u);
  EXPECT_EQ(p.node->registry().counter_value("node.decode_errors"), 2u);
  // The spent channel's socket is no longer watched: the rest of the flood
  // cannot wake the node this round.
  using Call = std::pair<std::uint16_t, bool>;
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (Call{3000, false}));
  calls.clear();
  flood(500);
  poll_node(*p.node);
  EXPECT_TRUE(calls.empty());
  EXPECT_EQ(p.node->registry().counter_value("node.datagrams_read"), 2u);
  // The round tick flushes the rest unread and watches the port again.
  p.node->on_round();
  EXPECT_EQ(p.node->registry().counter_value("node.flushed_unread"), 998u);
  EXPECT_EQ(std::count(calls.begin(), calls.end(), Call{3000, true}), 1);
  EXPECT_EQ(std::count(calls.begin(), calls.end(), Call{3000, false}), 0);
  // Fresh round, fresh budget.
  flood(10);
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.datagrams_read"), 4u);
}

TEST(Node, SocketHookCallsAlternatePerSocket) {
  // Per socket, the hook's calls must go watch, stop, watch, ... — through
  // budget-spent unwatches, round-start rewatches, port rotation (which
  // retires unwatched sockets silently), a hook reinstalled while a socket
  // is unwatched, and destruction.
  using Log = std::map<const net::Socket*, std::vector<bool>>;
  Log first;
  Log second;
  std::set<std::uint16_t> ports;
  auto recorder = [&ports](Log& log) {
    return [&ports, &log](net::Socket& s, bool watch) {
      log[&s].push_back(watch);
      ports.insert(s.local().port);
    };
  };
  auto alternates = [](const Log& log) {
    for (const auto& [sock, calls] : log) {
      if (calls.empty() || !calls.front()) return false;
      for (std::size_t i = 1; i < calls.size(); ++i) {
        if (calls[i] == calls[i - 1]) return false;
      }
    }
    return true;
  };
  auto p = std::make_unique<Solo>();
  util::Bytes junk = {0xEE, 1, 2, 3};
  // Past every budget on the given ports (the largest budget is 4).
  auto flood = [&](const std::set<std::uint16_t>& to) {
    for (std::uint16_t port : to) {
      for (int i = 0; i < 8; ++i) {
        p->net.send_raw(net::Address{77, 1}, net::Address{0, port},
                        util::ByteSpan(junk));
      }
    }
    poll_node(*p->node);
  };

  p->node->set_socket_hook(recorder(first));
  // Every channel spent every round, so each random socket is unwatched
  // when it expires.
  for (int r = 0; r < 6; ++r) {
    flood(ports);
    p->node->on_round();
  }
  EXPECT_EQ(p->node->registry().counter_value("node.rounds"), 6u);
  // Reinstall while only the pull-request socket is unwatched: the new hook
  // hears about every other socket and not that one, until on_round().
  flood({3000});
  p->node->set_socket_hook(recorder(second));
  // Two well-known sockets plus three random ones per live round.
  const std::size_t bound = 2 + 3 * p->node->config().port_lifetime_rounds;
  EXPECT_EQ(second.size(), bound - 1);
  for (const auto& [sock, calls] : second) {
    EXPECT_NE(sock->local().port, 3000);
  }
  for (int r = 0; r < 4; ++r) {
    flood(ports);
    p->node->on_round();
  }
  flood({3000});
  p.reset();

  EXPECT_TRUE(alternates(first));
  EXPECT_TRUE(alternates(second));
  // Destruction stops watching everything still watched.
  for (const auto& [sock, calls] : second) EXPECT_FALSE(calls.back());
}

TEST(Node, FloodOnPullPortDoesNotConsumeOfferBudget) {
  // The separate-bounds property at unit level: exhaust the pull-request
  // budget, then a push-offer must still be processed.
  Solo p;
  util::Bytes junk = {static_cast<std::uint8_t>(MsgType::kPullRequest), 1};
  for (int i = 0; i < 50; ++i) {
    p.net.send_raw(net::Address{77, 1}, net::Address{0, 3000},
                   util::ByteSpan(junk));
  }
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.push_offers_answered"),
            0u);
  // A genuine push-offer from node 1 (who targets node 0 via its own round
  // sometimes; force it by crafting a valid offer ourselves).
  auto key = p.ids[1].derive_pair_key(p.ids[0].dh_public());
  PushOffer offer;
  offer.sender = 1;
  offer.boxed_reply_port =
      crypto::portbox_seal_port(util::ByteSpan(key), 49999, p.rng);
  p.net.send_raw(net::Address{1, 60000}, net::Address{0, 3001},
                 util::ByteSpan(encode(offer)));
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.push_offers_answered"), 1u);
}

TEST(Node, FabricatedControlCountsAsBoxFailure) {
  Solo p;
  PushOffer offer;
  offer.sender = 1;  // real member id, but the box is garbage
  offer.boxed_reply_port = util::Bytes(crypto::kPortBoxOverhead + 2, 0xAB);
  p.net.send_raw(net::Address{9, 9}, net::Address{0, 3001},
                 util::ByteSpan(encode(offer)));
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.box_failures"), 1u);
  EXPECT_EQ(p.node->registry().counter_value("node.push_offers_answered"), 0u);
}

TEST(Node, UnknownOrSelfSenderRejected) {
  Solo p;
  PushOffer offer;
  offer.sender = 99;  // not in the directory
  offer.boxed_reply_port = util::Bytes(crypto::kPortBoxOverhead + 2, 1);
  p.net.send_raw(net::Address{9, 9}, net::Address{0, 3001},
                 util::ByteSpan(encode(offer)));
  offer.sender = 0;  // claims to be the receiver itself
  p.net.send_raw(net::Address{9, 9}, net::Address{0, 3001},
                 util::ByteSpan(encode(offer)));
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.unknown_sender"), 2u);
}

TEST(Node, ForgedDataSignatureRejected) {
  Pair p(3);
  // Deliver a PushData with a bogus signature straight to node 0's current
  // push-data port. We don't know the port (it's random!), so use the pull
  // path instead: craft a PullReply to the port node 0 boxed in its own
  // pull-request. Simplest robust approach: tamper a real message mid-run.
  DataMessage msg;
  msg.id = {1, 0};
  msg.payload = {1, 2, 3};
  msg.round_counter = 1;
  // signature left zeroed: invalid.
  PullReply reply{1, {msg}};
  // Spray it at the whole ephemeral range? No — bind order is deterministic
  // per seed, but the clean way is via the node's own stats after a flood
  // on the data channel in the wk-ports variant:
  Solo q(Variant::kDrumWkPorts);
  q.net.send_raw(net::Address{9, 9}, net::Address{0, 3002},
                 util::ByteSpan(encode(reply)));
  poll_node(*q.node);
  EXPECT_EQ(q.node->registry().counter_value("node.sig_failures"), 1u);
  EXPECT_EQ(q.node->registry().counter_value("node.delivered"), 0u);
}

// Byte-identical copies of a message inside one node's ingress section
// share one signature check and its verdict: five valid copies in one frame
// cost one check and deliver once, five forged copies cost one check and
// still count five forgeries. Sections of different nodes never share.
TEST(Node, IdenticalCopiesShareOneSignatureCheckPerNode) {
  // Five copies of message (1, seqno) in one pull reply to node 0's pinned
  // data port.
  auto send_copies = [](Solo& w, std::uint64_t seqno, bool valid) {
    DataMessage msg;
    msg.id = {1, seqno};
    msg.round_counter = 1;
    msg.payload = {7, 7, 7};
    if (valid) {
      msg.signature = w.ids[1].sign(util::ByteSpan(msg.signed_bytes()));
    }  // else: zeroed signature, invalid
    const PullReply reply{1, std::vector<DataMessage>(5, msg)};
    w.net.send_raw(net::Address{1, 9}, net::Address{0, 3002},
                   util::ByteSpan(encode(reply)));
  };
  Solo w(Variant::kDrumWkPorts);
  for (const bool valid : {true, false}) {
    send_copies(w, valid ? 0 : 1, valid);
    ingress::IngressBatch batch;
    w.node->drain_ingress(batch);
    EXPECT_EQ(batch.verify(), 1u) << (valid ? "valid" : "forged");
    for (auto& sec : batch.sections()) {
      sec.node->ingest(std::span<ingress::VerifiedFrame>(sec.frames));
    }
  }
  const auto& reg = w.node->registry();
  EXPECT_EQ(reg.counter_value("node.delivered"), 1u);
  EXPECT_EQ(reg.counter_value("node.duplicates"), 4u);
  EXPECT_EQ(reg.counter_value("node.sig_failures"), 5u);

  // The same message drained by two nodes into one batch: one check each.
  Solo c(Variant::kDrumWkPorts);
  Solo d(Variant::kDrumWkPorts);
  ingress::IngressBatch shared;
  for (Solo* n : {&c, &d}) {
    send_copies(*n, 0, true);
    n->node->drain_ingress(shared);
  }
  EXPECT_EQ(shared.verify(), 2u);
}

// Two identical single-node worlds fed the same forged/valid data frames:
// one drains a whole round's backlog in one ingress batch (a single poll),
// the other polls after every datagram so each batch holds one frame. Blame
// attribution — who gets the sig-failure penalty, what the counters say —
// must not depend on the batching window (DESIGN.md §12).
TEST(Node, BatchVerifyBlameAttributionMatchesSingleFrameVerify) {
  struct World {
    util::Rng rng{5};
    net::MemNetwork net;
    std::vector<crypto::Identity> ids;
    std::vector<Peer> dir;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<Node> node;
    std::vector<Node::Delivery> got;

    World() {
      check::reset_nonce_tracker();  // fresh deliberately re-seeded world
      dir.resize(3);
      for (std::uint32_t id = 0; id < 3; ++id) {
        ids.push_back(crypto::Identity::generate(rng));
        dir[id] = {id,
                   id,
                   static_cast<std::uint16_t>(3000 + 3 * id),
                   static_cast<std::uint16_t>(3001 + 3 * id),
                   static_cast<std::uint16_t>(3002 + 3 * id),
                   ids[id].sign_public(),
                   ids[id].dh_public(),
                   true};
      }
      transport = net.transport(0);
      // wk-ports variant: the data port is pinned, so forged frames can be
      // aimed without knowing the rotating random port. Scoring on: the
      // test's whole point is that penalties land identically.
      NodeConfig cfg = make_node_config(Variant::kDrumWkPorts, 0);
      cfg.wk_pull_port = 3000;
      cfg.wk_offer_port = 3001;
      cfg.wk_pull_reply_port = 3002;
      cfg.scoring.enabled = true;
      node = std::make_unique<Node>(
          cfg, ids[0], dir, *transport, rng.next(),
          [this](const Node::Delivery& d) { got.push_back(d); });
    }
  };

  // Drives one world through `kRounds` rounds of 4 frames x 3 messages.
  // Frame f's corruption mask = f % 8, so every combination of corrupt
  // positions within a frame (none, first, middle, last, pairs, all) occurs
  // at every batch position across the run. Round 2 additionally repeats
  // one message id across two frames of the same batch — the copy in the
  // later frame carries a BAD signature, and must still count as a
  // duplicate (never a forgery): the single-frame path deduped it at parse
  // time without ever checking the signature.
  constexpr int kRounds = 6;
  constexpr int kFramesPerRound = 4;  // = the pull_data reception budget
  constexpr int kMsgsPerFrame = 3;
  auto drive = [&](World& w, bool batched) {
    std::uint64_t seqno = 0;
    for (int r = 0; r < kRounds; ++r) {
      w.node->on_round();
      for (int j = 0; j < kFramesPerRound; ++j) {
        const int f = r * kFramesPerRound + j;
        const std::uint32_t frame_sender = 1 + (f % 2);
        PullReply reply;
        reply.sender = frame_sender;
        for (int m = 0; m < kMsgsPerFrame; ++m) {
          DataMessage msg;
          const std::uint32_t source = 1 + ((f + m) % 2);
          const bool dup_in_batch = r == 2 && j == 1 && m == 0;
          // The duplicate reuses round-2 frame-0 message-0's id (seqno
          // arithmetic: frames are filled in order, 3 msgs each).
          msg.id = {dup_in_batch ? 1u + ((f - 1) % 2) : source,
                    dup_in_batch ? seqno - kMsgsPerFrame : seqno};
          ++seqno;
          msg.round_counter = 1;
          msg.payload = {static_cast<std::uint8_t>(f),
                         static_cast<std::uint8_t>(m)};
          const bool corrupt = dup_in_batch || ((f % 8) >> m) & 1;
          if (!corrupt) {
            msg.signature =
                w.ids[msg.id.source].sign(util::ByteSpan(msg.signed_bytes()));
          }  // else: zeroed signature, invalid
          reply.messages.push_back(std::move(msg));
        }
        w.net.send_raw(net::Address{frame_sender, 9}, net::Address{0, 3002},
                       util::ByteSpan(encode(reply)));
        if (!batched) poll_node(*w.node);  // one-frame batches
      }
      // The whole round's backlog in one batch.
      if (batched) poll_node(*w.node);
    }
  };

  World batched;
  World single;
  drive(batched, true);
  drive(single, false);

  // Deliveries byte-identical, in the same order.
  ASSERT_EQ(batched.got.size(), single.got.size());
  for (std::size_t i = 0; i < batched.got.size(); ++i) {
    EXPECT_EQ(batched.got[i].msg.id, single.got[i].msg.id);
    EXPECT_EQ(batched.got[i].msg.payload, single.got[i].msg.payload);
  }

  // Counters byte-identical.
  for (const char* name :
       {"node.delivered", "node.duplicates", "node.sig_failures",
        "node.decode_errors", "node.box_failures", "node.datagrams_read",
        "node.flushed_unread", "node.unknown_sender"}) {
    EXPECT_EQ(batched.node->registry().counter_value(name),
              single.node->registry().counter_value(name))
        << name;
  }
  // Sanity: the run actually exercised forgeries, dupes and deliveries.
  EXPECT_GT(batched.node->registry().counter_value("node.sig_failures"), 0u);
  EXPECT_GT(batched.node->registry().counter_value("node.duplicates"), 0u);
  EXPECT_GT(batched.node->registry().counter_value("node.delivered"), 0u);

  // Blame attribution identical: per-peer scores and penalty tallies.
  auto& bs = batched.node->score_table();
  auto& ss = single.node->score_table();
  for (std::uint32_t p = 1; p <= 2; ++p) {
    EXPECT_EQ(bs.score(p), ss.score(p)) << "peer " << p;
    EXPECT_EQ(bs.greylisted(p), ss.greylisted(p)) << "peer " << p;
  }
  EXPECT_EQ(bs.penalties_decode(), ss.penalties_decode());
  EXPECT_EQ(bs.penalties_overuse(), ss.penalties_overuse());
  EXPECT_EQ(bs.penalties_futility(), ss.penalties_futility());
  EXPECT_EQ(bs.greylist_entries(), ss.greylist_entries());
  EXPECT_GT(bs.penalties_decode(), 0u);  // forgeries actually drew blame
}

TEST(Node, CarryOverKeepsBacklogAcrossRounds) {
  // discard_unread=false ablation: the flood survives the round boundary
  // and keeps eating future budgets (why §4's discard matters).
  util::Rng rng(9);
  net::MemNetwork net;
  auto id = crypto::Identity::generate(rng);
  std::vector<Peer> dir(2);
  dir[0] = {0, 0, 3000, 3001, 0, id.sign_public(), id.dh_public(), true};
  auto id1 = crypto::Identity::generate(rng);
  dir[1] = {1, 1, 3100, 3101, 0, id1.sign_public(), id1.dh_public(), true};
  auto tr = net.transport(0);
  NodeConfig cfg = make_node_config(Variant::kDrum, 0);
  cfg.wk_pull_port = 3000;
  cfg.wk_offer_port = 3001;
  cfg.discard_unread = false;
  Node node(cfg, id, dir, *tr, 3, nullptr);

  util::Bytes junk = {static_cast<std::uint8_t>(MsgType::kPullRequest), 5};
  for (int i = 0; i < 20; ++i) {
    net.send_raw(net::Address{66, 6}, net::Address{0, 3000},
                 util::ByteSpan(junk));
  }
  poll_node(node);
  auto read_r1 = node.registry().counter_value("node.datagrams_read");
  EXPECT_EQ(read_r1, 2u);  // budget
  node.on_round();
  EXPECT_EQ(node.registry().counter_value("node.flushed_unread"),
            0u);  // nothing discarded
  poll_node(node);
  // The stale backlog is read (and burns budget) in the new round too.
  EXPECT_EQ(node.registry().counter_value("node.datagrams_read"),
            read_r1 + 2);
}

TEST(Node, UpdatePeersValidation) {
  Pair p(3);
  std::vector<Peer> missing_self = p.dir;
  missing_self[0].present = false;
  EXPECT_THROW(p.nodes[0]->update_peers(missing_self), std::invalid_argument);

  std::vector<Peer> misindexed = p.dir;
  misindexed[1].id = 2;
  EXPECT_THROW(p.nodes[0]->update_peers(misindexed), std::invalid_argument);

  std::vector<Peer> drop_two = p.dir;
  drop_two[2].present = false;
  EXPECT_NO_THROW(p.nodes[0]->update_peers(drop_two));
}

TEST(Node, RemovedPeerNoLongerAccepted) {
  Solo p;
  auto dir = p.dir;
  dir[1].present = false;
  p.node->update_peers(dir);
  // Node 1 sends a (genuine) offer; node 0 must treat it as unknown.
  auto key = p.ids[1].derive_pair_key(p.ids[0].dh_public());
  PushOffer offer;
  offer.sender = 1;
  offer.boxed_reply_port =
      crypto::portbox_seal_port(util::ByteSpan(key), 50000, p.rng);
  p.net.send_raw(net::Address{1, 60000}, net::Address{0, 3001},
                 util::ByteSpan(encode(offer)));
  poll_node(*p.node);
  EXPECT_EQ(p.node->registry().counter_value("node.unknown_sender"), 1u);
}

TEST(Node, RandomReplyPortsRotateAcrossRoundsAndAreEncrypted) {
  // Observe the reply ports node 0 advertises: stand in for peer 1 by
  // binding its well-known pull and offer ports ourselves and opening the
  // boxes with the pair key (paper §4: ports are random, fresh, and
  // encrypted). Every box seals exactly one 2-byte port.
  util::Rng rng(6);
  net::MemNetwork net;
  auto id0 = crypto::Identity::generate(rng);
  auto id1 = crypto::Identity::generate(rng);
  std::vector<Peer> dir(2);
  dir[0] = {0, 0, 3000, 3001, 0, id0.sign_public(), id0.dh_public(), true};
  dir[1] = {1, 1, 3100, 3101, 0, id1.sign_public(), id1.dh_public(), true};

  auto peer_tr = net.transport(1);
  auto peer_pull_sock = peer_tr->bind(3100);  // we play peer 1
  ASSERT_TRUE(peer_pull_sock);
  auto peer_offer_sock = peer_tr->bind(3101);
  ASSERT_TRUE(peer_offer_sock);

  auto node_tr = net.transport(0);
  NodeConfig cfg = make_node_config(Variant::kDrum, 0);
  // With one candidate, every round's pull-request and push offer go to
  // "peer 1".
  cfg.wk_pull_port = 3000;
  cfg.wk_offer_port = 3001;
  Node node(cfg, id0, dir, *node_tr, 77, nullptr);

  auto key = id1.derive_pair_key(id0.dh_public());
  std::set<std::uint16_t> ports;
  int requests = 0;
  int offers = 0;
  for (int r = 0; r < 8; ++r) {
    node.on_round();
    while (auto d = peer_pull_sock->recv()) {
      auto req = decode_pull_request(util::ByteSpan(d->payload), 4096);
      EXPECT_EQ(req.sender, 0u);
      EXPECT_EQ(req.boxed_reply_port.size(), crypto::kPortBoxOverhead + 2);
      auto port = crypto::portbox_open_port(
          util::ByteSpan(key), util::ByteSpan(req.boxed_reply_port));
      ASSERT_TRUE(port.has_value());  // encrypted, but we hold the pair key
      EXPECT_GE(*port, 49152);        // ephemeral range
      ports.insert(*port);
      ++requests;
    }
    while (auto d = peer_offer_sock->recv()) {
      auto offer = decode_push_offer(util::ByteSpan(d->payload));
      EXPECT_EQ(offer.sender, 0u);
      EXPECT_EQ(offer.boxed_reply_port.size(), crypto::kPortBoxOverhead + 2);
      auto port = crypto::portbox_open_port(
          util::ByteSpan(key), util::ByteSpan(offer.boxed_reply_port));
      ASSERT_TRUE(port.has_value());
      EXPECT_GE(*port, 49152);
      ++offers;
    }
  }
  EXPECT_GE(requests, 8);
  EXPECT_GE(offers, 8);
  // Fresh random port (almost) every round.
  EXPECT_GE(ports.size(), 6u);
}

TEST(Node, RoundTickDerivesEachNewTargetOnceInOneBatch) {
  // Node 0 runs alone, without prewarm, so nothing reaches its ingress and
  // every pair key it derives is a round tick's. We play its 15 peers by
  // binding their well-known ports, which tells us each round's targets.
  check::reset_nonce_tracker();
  util::Rng rng(41);
  net::MemNetwork net;
  constexpr std::uint32_t kNodes = 16;
  std::vector<crypto::Identity> ids;
  std::vector<Peer> dir(kNodes);
  for (std::uint32_t id = 0; id < kNodes; ++id) {
    ids.push_back(crypto::Identity::generate(rng));
    dir[id] = {id,
               id,
               static_cast<std::uint16_t>(3000 + 3 * id),
               static_cast<std::uint16_t>(3001 + 3 * id),
               0,
               ids[id].sign_public(),
               ids[id].dh_public(),
               true};
  }
  std::vector<std::unique_ptr<net::Transport>> peer_tr;
  std::vector<std::unique_ptr<net::Socket>> pull_sinks, offer_sinks;
  for (std::uint32_t id = 1; id < kNodes; ++id) {
    peer_tr.push_back(net.transport(id));
    auto pull = peer_tr.back()->bind(dir[id].wk_pull_port);
    auto offer = peer_tr.back()->bind(dir[id].wk_offer_port);
    ASSERT_TRUE(pull && offer);
    pull_sinks.push_back(pull.take());
    offer_sinks.push_back(offer.take());
  }
  auto node_tr = net.transport(0);
  NodeConfig cfg = make_node_config(Variant::kDrum, 0);
  cfg.wk_pull_port = dir[0].wk_pull_port;
  cfg.wk_offer_port = dir[0].wk_offer_port;
  Node node(cfg, ids[0], dir, *node_tr, 9, nullptr);

  auto derived = [&] {
    return node.registry().counter_value("node.pair_keys_derived");
  };
  auto batches = [&] {
    return node.registry().counter_value("node.pair_key_batches");
  };
  std::set<std::uint32_t> keyed;  // every peer node 0 has sent gossip to
  std::uint64_t last_derived = 0;
  std::uint64_t last_batches = 0;
  bool new_target_in_both_views = false;
  // Round 0 is the gossip the constructor sends.
  for (int r = 0; r <= 6; ++r) {
    if (r > 0) node.on_round();
    std::set<std::uint32_t> fresh;
    for (std::uint32_t k = 0; k + 1 < kNodes; ++k) {
      int pulls = 0;
      int offers = 0;
      while (pull_sinks[k]->recv()) ++pulls;
      while (offer_sinks[k]->recv()) ++offers;
      if (pulls + offers > 0 && !keyed.contains(k + 1)) {
        fresh.insert(k + 1);
        if (pulls > 0 && offers > 0) new_target_in_both_views = true;
      }
    }
    keyed.insert(fresh.begin(), fresh.end());
    SCOPED_TRACE(r);
    EXPECT_EQ(derived() - last_derived, fresh.size());
    EXPECT_EQ(batches() - last_batches, fresh.empty() ? 0u : 1u);
    last_derived = derived();
    last_batches = batches();
  }
  EXPECT_TRUE(new_target_in_both_views);  // the case the dedupe is for
  ASSERT_LT(keyed.size(), kNodes - 1);

  node.prewarm_pair_keys();
  EXPECT_EQ(derived(), kNodes - 1u);
  EXPECT_EQ(batches(), last_batches + 1);
  for (int r = 0; r < 3; ++r) node.on_round();
  EXPECT_EQ(derived(), kNodes - 1u);
  EXPECT_EQ(batches(), last_batches + 1);
}

// A group on one MemNetwork without prewarm, for first contacts on ingress:
// the members in `hosted` run Nodes, and the test plays every other member,
// whose well-known ports are sinks. A sink that hears a hosted node's round
// tick shows that the node keyed that member.
struct LazyGroup {
  util::Rng rng{61};
  net::MemNetwork net;
  std::vector<crypto::Identity> ids;
  std::vector<Peer> dir;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<net::Socket>> sinks;
  std::map<std::uint32_t, std::unique_ptr<Node>> nodes;
  /// For each hosted node, the played members its round ticks reached.
  std::map<std::uint32_t, std::set<std::uint32_t>> keyed;

  LazyGroup(std::uint32_t n, const std::set<std::uint32_t>& hosted) {
    check::reset_nonce_tracker();  // fresh deliberately re-seeded world
    dir.resize(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      ids.push_back(crypto::Identity::generate(rng));
      dir[id] = {id,
                 id,
                 static_cast<std::uint16_t>(3000 + 3 * id),
                 static_cast<std::uint16_t>(3001 + 3 * id),
                 0,
                 ids[id].sign_public(),
                 ids[id].dh_public(),
                 true};
    }
    for (std::uint32_t id = 0; id < n; ++id) {
      transports.push_back(net.transport(id));
      if (hosted.contains(id)) continue;
      for (std::uint16_t port : {dir[id].wk_pull_port, dir[id].wk_offer_port}) {
        auto sock = transports.back()->bind(port);
        EXPECT_TRUE(sock);
        sinks.push_back(sock.take());
      }
    }
    for (const std::uint32_t id : hosted) {
      NodeConfig cfg = make_node_config(Variant::kDrum, id);
      cfg.wk_pull_port = dir[id].wk_pull_port;
      cfg.wk_offer_port = dir[id].wk_offer_port;
      nodes[id] = std::make_unique<Node>(cfg, ids[id], dir, *transports[id],
                                         rng.next(), nullptr);
    }
    for (const auto& sink : sinks) {
      while (auto d = sink->recv()) {
        keyed[d->from.host].insert(sink->local().host);
      }
    }
  }

  /// `count` played members that hosted node `h` holds no pair key for.
  std::vector<std::uint32_t> strangers(std::uint32_t h, std::size_t count) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t id = 0; id < dir.size() && out.size() < count; ++id) {
      if (!nodes.contains(id) && !keyed[h].contains(id)) out.push_back(id);
    }
    EXPECT_EQ(out.size(), count);
    return out;
  }

  /// A control frame from played member `from` to hosted node `to`: an
  /// offer, or a pull request with an empty digest. Sealed under their
  /// pair key, or garbage in place of the box when `spoofed`.
  void send(std::uint32_t from, std::uint32_t to, Channel ch,
            bool spoofed = false) {
    const util::Bytes key = ids[from].derive_pair_key(ids[to].dh_public());
    util::Bytes box = spoofed ? util::Bytes(crypto::kPortBoxOverhead + 2, 0xAB)
                              : crypto::portbox_seal_port(
                                    util::ByteSpan(key), 40000, rng);
    util::Bytes wire;
    if (ch == Channel::kOffer) {
      wire = encode(PushOffer{from, std::move(box), {}});
    } else {
      wire = encode(PullRequest{from, {}, std::move(box), {}});
    }
    const std::uint16_t port = ch == Channel::kOffer ? dir[to].wk_offer_port
                                                     : dir[to].wk_pull_port;
    net.send_raw(net::Address{from, 40001}, net::Address{to, port},
                 util::ByteSpan(wire));
  }

  std::uint64_t count(std::uint32_t h, const char* name) {
    return nodes[h]->registry().counter_value(name);
  }
};

TEST(Node, OneDrainDerivesItsNewSendersInOneCall) {
  LazyGroup g(16, {0});
  const std::vector<std::uint32_t> s = g.strangers(0, 3);
  // Three new senders in four frames, within the offer and pull-request
  // budgets of two each: s[0] sends both an offer and a pull request.
  g.send(s[0], 0, Channel::kOffer);
  g.send(s[0], 0, Channel::kPullReq);
  g.send(s[1], 0, Channel::kOffer);
  g.send(s[2], 0, Channel::kPullReq);
  const std::uint64_t derived = g.count(0, "node.pair_keys_derived");
  const std::uint64_t batches = g.count(0, "node.pair_key_batches");
  ingress::IngressBatch batch;
  g.nodes[0]->drain_ingress(batch);
  ASSERT_EQ(batch.sections().size(), 1u);
  EXPECT_EQ(batch.sections().front().pending_keys.size(), 3u);
  batch.dispatch();
  EXPECT_EQ(g.count(0, "node.pair_keys_derived"), derived + 3);
  EXPECT_EQ(g.count(0, "node.pair_key_batches"), batches + 1);
  // Every box opened under its derived key.
  EXPECT_EQ(g.count(0, "node.box_failures"), 0u);
  EXPECT_EQ(g.count(0, "node.push_offers_answered"), 2u);
  EXPECT_EQ(g.count(0, "node.pull_requests_served"), 2u);
  // The keys are cached: the same senders next round derive nothing.
  g.nodes[0]->on_round();
  const std::uint64_t after_round = g.count(0, "node.pair_keys_derived");
  g.send(s[1], 0, Channel::kPullReq);
  g.send(s[2], 0, Channel::kOffer);
  poll_node(*g.nodes[0]);
  EXPECT_EQ(g.count(0, "node.pair_keys_derived"), after_round);
  EXPECT_EQ(g.count(0, "node.box_failures"), 0u);
}

TEST(Node, SpoofedFramesBuyOneDerivationPerNamedPeer) {
  LazyGroup g(24, {0});
  const std::vector<std::uint32_t> s = g.strangers(0, 3);
  const std::uint64_t derived = g.count(0, "node.pair_keys_derived");
  // A spoofed pull request naming an uncached present peer: its box fails,
  // but the peer's key is cached all the same.
  g.send(s[0], 0, Channel::kPullReq, /*spoofed=*/true);
  poll_node(*g.nodes[0]);
  EXPECT_EQ(g.count(0, "node.box_failures"), 1u);
  EXPECT_EQ(g.count(0, "node.pair_keys_derived"), derived + 1);
  // A second one in a later drain derives nothing.
  g.send(s[0], 0, Channel::kPullReq, /*spoofed=*/true);
  poll_node(*g.nodes[0]);
  EXPECT_EQ(g.count(0, "node.box_failures"), 2u);
  EXPECT_EQ(g.count(0, "node.pair_keys_derived"), derived + 1);
  // A flood over several rounds naming three peers buys at most one
  // derivation per named peer, however many frames the budgets admit.
  std::uint64_t round_keys = 0;
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 30; ++i) {
      g.send(s[i % 3], 0, i % 2 ? Channel::kOffer : Channel::kPullReq,
             /*spoofed=*/true);
      if (i % 10 == 9) poll_node(*g.nodes[0]);
    }
    const std::uint64_t before = g.count(0, "node.pair_keys_derived");
    g.nodes[0]->on_round();
    round_keys += g.count(0, "node.pair_keys_derived") - before;
  }
  EXPECT_GT(g.count(0, "node.box_failures"), 10u);
  EXPECT_LE(g.count(0, "node.pair_keys_derived") - round_keys, derived + 3);
}

TEST(Node, PeerKeyChangedBetweenDrainAndIngestIsNotCached) {
  LazyGroup g(16, {0});
  const std::uint32_t s = g.strangers(0, 1).front();
  // A pull request: serving it seals nothing, so no send path derives the
  // key on its own.
  g.send(s, 0, Channel::kPullReq);
  ingress::IngressBatch batch;
  g.nodes[0]->drain_ingress(batch);
  batch.verify();
  // The member re-keys between the stages.
  const crypto::Identity rekeyed = crypto::Identity::generate(g.rng);
  std::vector<Peer> dir = g.dir;
  dir[s].dh_pub = rekeyed.dh_public();
  g.nodes[0]->update_peers(dir);
  for (auto& sec : batch.sections()) {
    sec.node->ingest(std::span<ingress::VerifiedFrame>(sec.frames));
  }
  batch.clear();
  // Nothing stale was cached: the next frame, sealed under the new key,
  // derives that key and opens.
  const std::uint64_t derived = g.count(0, "node.pair_keys_derived");
  const std::uint64_t answered = g.count(0, "node.push_offers_answered");
  g.ids[s] = rekeyed;
  g.send(s, 0, Channel::kOffer);
  poll_node(*g.nodes[0]);
  EXPECT_EQ(g.count(0, "node.pair_keys_derived"), derived + 1);
  EXPECT_EQ(g.count(0, "node.push_offers_answered"), answered + 1);
  EXPECT_EQ(g.count(0, "node.box_failures"), 0u);
}

TEST(Node, OneBatchDerivesEachNodesFirstContactsUnderItsOwnKey) {
  LazyGroup g(24, {0, 1});
  // Settle what the two nodes' round-0 gossip sent each other, replies
  // included.
  for (int i = 0; i < 2; ++i) {
    for (const std::uint32_t h : {0u, 1u}) poll_node(*g.nodes[h]);
  }
  const std::vector<std::uint32_t> s0 = g.strangers(0, 2);
  const std::vector<std::uint32_t> s1 = g.strangers(1, 3);
  const std::uint64_t answered0 = g.count(0, "node.push_offers_answered");
  const std::uint64_t answered1 = g.count(1, "node.push_offers_answered");
  const std::uint64_t served1 = g.count(1, "node.pull_requests_served");
  // Within the budgets of two offers and two pull requests per node.
  for (const std::uint32_t s : s0) g.send(s, 0, Channel::kOffer);
  g.send(s1[0], 1, Channel::kPullReq);
  g.send(s1[1], 1, Channel::kPullReq);
  g.send(s1[0], 1, Channel::kOffer);
  g.send(s1[2], 1, Channel::kOffer);
  ingress::IngressBatch batch;
  for (const std::uint32_t h : {0u, 1u}) g.nodes[h]->drain_ingress(batch);
  batch.verify();
  std::size_t frames = 0;
  for (const auto& sec : batch.sections()) {
    const std::uint32_t h = sec.node->config().id;
    EXPECT_EQ(sec.pending_keys.size(), h == 0 ? 2u : 3u);
    for (const auto& f : sec.frames) {
      if (g.nodes.contains(f.sender)) continue;
      ++frames;
      ASSERT_TRUE(f.derive_from.has_value());
      const util::Bytes want =
          g.ids[h].derive_pair_key(g.ids[f.sender].dh_public());
      EXPECT_EQ(util::Bytes(f.box_key.begin(), f.box_key.end()), want)
          << "node " << h << " sender " << f.sender;
      EXPECT_TRUE(f.port.has_value()) << "node " << h << " sender " << f.sender;
    }
  }
  EXPECT_EQ(frames, 6u);
  for (auto& sec : batch.sections()) {
    sec.node->ingest(std::span<ingress::VerifiedFrame>(sec.frames));
  }
  EXPECT_EQ(g.count(0, "node.push_offers_answered"), answered0 + 2);
  EXPECT_EQ(g.count(1, "node.pull_requests_served"), served1 + 2);
  EXPECT_EQ(g.count(1, "node.push_offers_answered"), answered1 + 2);
  EXPECT_EQ(g.count(0, "node.box_failures") + g.count(1, "node.box_failures"),
            0u);
}

}  // namespace
}  // namespace drum::core

namespace drum::core {
namespace {

TEST(Node, SurvivesRandomGarbageOnEveryChannel) {
  // Fuzz: spray structured and unstructured garbage at the node's
  // well-known ports (and guess at its ephemeral range) for many rounds.
  // The node must never crash, never deliver, and account for everything.
  Solo p(Variant::kDrumWkPorts);  // wk pull-reply port = one more target
  util::Rng fuzz(0xF022);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 60; ++i) {
      util::Bytes junk(fuzz.below(96));
      for (auto& b : junk) b = static_cast<std::uint8_t>(fuzz.below(256));
      if (!junk.empty() && fuzz.chance(0.7)) {
        junk[0] = static_cast<std::uint8_t>(1 + fuzz.below(5));
      }
      std::uint16_t port;
      switch (fuzz.below(4)) {
        case 0: port = 3000; break;          // wk pull
        case 1: port = 3001; break;          // wk offer
        case 2: port = 3002; break;          // wk pull-reply (ablation)
        default:                              // ephemeral guesses
          port = static_cast<std::uint16_t>(49152 + fuzz.below(16384));
      }
      p.net.send_raw(net::Address{0xBAD, 1}, net::Address{0, port},
                     util::ByteSpan(junk));
    }
    poll_node(*p.node);
    p.node->on_round();
  }
  const auto& reg = p.node->registry();
  EXPECT_EQ(reg.counter_value("node.delivered"), 0u);
  // Everything read was either rejected or flushed; totals reconcile.
  EXPECT_GT(reg.counter_value("node.datagrams_read"), 0u);
  EXPECT_GT(reg.counter_value("node.decode_errors") +
                reg.counter_value("node.box_failures") +
                reg.counter_value("node.unknown_sender"),
            0u);
}

}  // namespace
}  // namespace drum::core

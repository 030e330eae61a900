// Integration tests: real protocol nodes gossiping over the in-memory (and
// real UDP) transports via the measurement harness — dissemination,
// deduplication, resource bounds under flood, the §9 ablations, and the
// headline Drum-vs-Push/Pull DoS behaviour, all with the full wire protocol,
// port boxes, and signatures.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "drum/check/check.hpp"
#include "drum/harness/cluster.hpp"
#include "drum/harness/group.hpp"
#include "drum/harness/swarm.hpp"

namespace drum::harness {
namespace {

ClusterConfig small_config(core::Variant v) {
  ClusterConfig cfg;
  cfg.variant = v;
  cfg.n = 20;
  cfg.malicious_fraction = 0.1;
  cfg.round_us = 10'000;  // virtual time: speed is CPU-bound, not wall-bound
  cfg.rate = 4;
  cfg.seed = 42;
  return cfg;
}

// Runs warmup + a measured window; returns the cluster for inspection.
std::unique_ptr<Cluster> run_scenario(const ClusterConfig& cfg,
                                      double warmup_rounds = 5,
                                      double measured_rounds = 25) {
  auto cluster = std::make_unique<Cluster>(cfg);
  cluster->run_rounds(warmup_rounds, /*workload=*/true);
  cluster->begin_measurement();
  cluster->run_rounds(measured_rounds, /*workload=*/true);
  cluster->end_measurement();
  // Drain in-flight messages so per-message completion is observed.
  cluster->run_rounds(15, /*workload=*/false);
  return cluster;
}

TEST(Cluster, DrumDisseminatesToEveryone) {
  auto cluster = run_scenario(small_config(core::Variant::kDrum));
  const auto& m = cluster->metrics();
  EXPECT_GT(m.messages_sent, 50u);
  // Nearly every message reached >= 99% of correct receivers.
  EXPECT_GT(m.messages_completed, m.messages_sent * 8 / 10);
  // Propagation takes a handful of rounds, as in the paper (~5).
  EXPECT_LT(m.propagation_rounds.mean(), 10.0);
  EXPECT_GE(m.propagation_rounds.mean(), 2.0);
}

TEST(Cluster, PushAndPullAlsoWorkWithoutAttack) {
  for (auto v : {core::Variant::kPush, core::Variant::kPull}) {
    auto cluster = run_scenario(small_config(v));
    const auto& m = cluster->metrics();
    EXPECT_GT(m.messages_completed, m.messages_sent * 7 / 10)
        << core::variant_name(v);
  }
}

TEST(Cluster, SignaturesVerifiedEndToEnd) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.verify_signatures = true;
  auto cluster = run_scenario(cfg, 3, 10);
  auto all = cluster->merged_registry();
  EXPECT_GT(all.counter_value("node.delivered"), 100u);
  // Honest traffic always verifies.
  EXPECT_EQ(all.counter_value("node.sig_failures"), 0u);
  // Every node delivered each message at most once.
  EXPECT_GT(all.counter_value("node.duplicates"), 0u);
}

TEST(Cluster, FloodIsReadBoundedAndDiscarded) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.alpha = 0.2;
  cfg.x = 100;
  auto cluster = run_scenario(cfg, 3, 15);
  auto all = cluster->merged_registry();
  // The flood shows up as box failures (type-correct garbage) and as
  // unread datagrams flushed at round ends — not as deliveries.
  EXPECT_GT(all.counter_value("node.box_failures"), 100u);
  EXPECT_GT(all.counter_value("node.flushed_unread"), 500u);
  EXPECT_EQ(all.counter_value("node.sig_failures"), 0u);
  // And the protocol still works.
  EXPECT_GT(cluster->metrics().messages_completed, 0u);
}

TEST(Cluster, DrumThroughputSurvivesTargetedAttack) {
  // Paper Fig. 10(a): Drum's throughput is roughly unaffected by x.
  auto base_cfg = small_config(core::Variant::kDrum);
  base_cfg.verify_signatures = false;  // CPU: see EXPERIMENTS.md
  auto baseline = run_scenario(base_cfg);
  double base_tp = baseline->metrics().mean_throughput_msgs_per_sec();

  auto attack_cfg = base_cfg;
  attack_cfg.alpha = 0.1;
  attack_cfg.x = 128;
  auto attacked = run_scenario(attack_cfg);
  double att_tp = attacked->metrics().mean_throughput_msgs_per_sec();

  ASSERT_GT(base_tp, 0.0);
  EXPECT_GT(att_tp, base_tp * 0.7);
}

TEST(Cluster, PullThroughputCollapsesUnderTargetedAttack) {
  // Paper Fig. 10(a): Pull's throughput decreases dramatically with x —
  // the attacked source serves almost no pull-requests, so messages purge
  // before they can be pulled. Needs a generation rate near the drain
  // limit, as in the paper's 40 msg/round workload.
  auto base_cfg = small_config(core::Variant::kPull);
  base_cfg.verify_signatures = false;
  base_cfg.rate = 30;
  auto baseline = run_scenario(base_cfg);
  double base_tp = baseline->metrics().mean_throughput_msgs_per_sec();

  auto attack_cfg = base_cfg;
  attack_cfg.alpha = 0.1;
  attack_cfg.x = 256;
  auto attacked = run_scenario(attack_cfg);
  double att_tp = attacked->metrics().mean_throughput_msgs_per_sec();

  ASSERT_GT(base_tp, 0.0);
  EXPECT_LT(att_tp, base_tp * 0.5);

  // Drum at the same rate and attack keeps nearly full throughput.
  auto drum_cfg = attack_cfg;
  drum_cfg.variant = core::Variant::kDrum;
  auto drum = run_scenario(drum_cfg);
  EXPECT_GT(drum->metrics().mean_throughput_msgs_per_sec(), base_tp * 0.8);
}

TEST(Cluster, PushLatencyToAttackedNodesSuffersDrumDoesNot) {
  // Paper Fig. 11(a): attacked processes measure ~4x longer latency under
  // Push; Drum keeps the gap small.
  auto push_cfg = small_config(core::Variant::kPush);
  push_cfg.verify_signatures = false;
  push_cfg.alpha = 0.2;
  push_cfg.x = 32;  // moderate: attacked nodes still receive, just slower
  auto push = run_scenario(push_cfg, 5, 30);

  double push_att = 0, push_non = 0;
  int att_n = 0, non_n = 0;
  for (const auto& pn : push->metrics().nodes) {
    if (pn.latency_us.count() == 0) continue;
    if (pn.attacked) {
      push_att += pn.hops.mean();
      ++att_n;
    } else {
      push_non += pn.hops.mean();
      ++non_n;
    }
  }
  ASSERT_GT(att_n, 0);
  ASSERT_GT(non_n, 0);
  push_att /= att_n;
  push_non /= non_n;
  EXPECT_GT(push_att, push_non * 1.5);

  auto drum_cfg = push_cfg;
  drum_cfg.variant = core::Variant::kDrum;
  auto drum = run_scenario(drum_cfg, 5, 30);
  double drum_att = 0, drum_non = 0;
  att_n = non_n = 0;
  for (const auto& pn : drum->metrics().nodes) {
    if (pn.latency_us.count() == 0) continue;
    (pn.attacked ? drum_att : drum_non) += pn.hops.mean();
    ++(pn.attacked ? att_n : non_n);
  }
  ASSERT_GT(att_n, 0);
  ASSERT_GT(non_n, 0);
  drum_att /= att_n;
  drum_non /= non_n;
  EXPECT_LT(drum_att, drum_non * 1.6);
  EXPECT_LT(drum_att, push_att);
}

TEST(Cluster, SharedBoundsDegradeUnderAttack) {
  // Paper Fig. 12(b): a joint control-message bound lets the flood starve
  // the (otherwise unattackable) push-reply channel, so the attacked source
  // can no longer disseminate; separate bounds keep Drum unaffected.
  auto shared_cfg = small_config(core::Variant::kDrumSharedBounds);
  shared_cfg.verify_signatures = false;
  shared_cfg.rate = 30;
  shared_cfg.alpha = 0.2;
  shared_cfg.x = 256;
  auto shared = run_scenario(shared_cfg, 5, 25);

  auto drum_cfg = shared_cfg;
  drum_cfg.variant = core::Variant::kDrum;
  auto drum = run_scenario(drum_cfg, 5, 25);

  double shared_tp = shared->metrics().mean_throughput_msgs_per_sec();
  double drum_tp = drum->metrics().mean_throughput_msgs_per_sec();
  EXPECT_LT(shared_tp, drum_tp * 0.5);
  // And the source's push path is specifically what dies: it acts on
  // (nearly) no push-replies, while plain Drum keeps pushing.
  EXPECT_LT(
      shared->node(0).registry().counter_value("node.push_replies_acted") + 10,
      drum->node(0).registry().counter_value("node.push_replies_acted"));
}

TEST(Cluster, WellKnownPortsDegradeUnderAttack) {
  // Paper Fig. 12(a): with pull-replies on a well-known (attackable) port,
  // attacked processes lose their receive path; random ports keep it open.
  auto wk_cfg = small_config(core::Variant::kDrumWkPorts);
  wk_cfg.verify_signatures = false;
  wk_cfg.rate = 30;
  wk_cfg.alpha = 0.2;
  wk_cfg.x = 256;
  auto wk = run_scenario(wk_cfg, 5, 25);

  auto drum_cfg = wk_cfg;
  drum_cfg.variant = core::Variant::kDrum;
  auto drum = run_scenario(drum_cfg, 5, 25);

  auto attacked_deliveries = [](const Cluster& c) {
    double sum = 0;
    int count = 0;
    for (const auto& pn : c.metrics().nodes) {
      if (pn.attacked) {
        sum += static_cast<double>(pn.delivered);
        ++count;
      }
    }
    return count ? sum / count : 0.0;
  };
  double wk_att = attacked_deliveries(*wk);
  double drum_att = attacked_deliveries(*drum);
  EXPECT_LT(wk_att, drum_att * 0.5);
  EXPECT_LT(wk->metrics().messages_completed,
            drum->metrics().messages_completed);
}

TEST(Cluster, WorksOverRealUdpLoopback) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.n = 12;
  cfg.use_udp = true;
  cfg.udp_base_port = 23000;
  cfg.rate = 3;
  auto cluster = run_scenario(cfg, 3, 12);
  EXPECT_GT(cluster->metrics().messages_completed, 0u);
  EXPECT_GT(cluster->merged_registry().counter_value("node.delivered"), 50u);
}

TEST(Cluster, RejectsDegenerateConfig) {
  ClusterConfig cfg;
  cfg.n = 2;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
  ClusterConfig cfg2;
  cfg2.n = 10;
  cfg2.malicious_fraction = 1.0;
  EXPECT_THROW(Cluster{cfg2}, std::invalid_argument);
}

TEST(Cluster, DeterministicGivenSeed) {
  auto cfg = small_config(core::Variant::kDrum);
  auto a = run_scenario(cfg, 3, 10);
  auto b = run_scenario(cfg, 3, 10);
  EXPECT_EQ(a->metrics().messages_sent, b->metrics().messages_sent);
  EXPECT_EQ(a->metrics().messages_completed, b->metrics().messages_completed);
  EXPECT_DOUBLE_EQ(a->metrics().propagation_rounds.mean(),
                   b->metrics().propagation_rounds.mean());
}

}  // namespace
}  // namespace drum::harness

namespace drum::harness {
namespace {

TEST(Cluster, RobustToElevatedLinkLoss) {
  // The paper assumes 1% loss; the implementation should also survive a
  // much lossier network (gossip redundancy pays for itself).
  auto cfg = small_config(core::Variant::kDrum);
  cfg.loss = 0.05;
  cfg.verify_signatures = false;
  auto cluster = std::make_unique<Cluster>(cfg);
  cluster->run_rounds(5, true);
  cluster->begin_measurement();
  cluster->run_rounds(25, true);
  cluster->end_measurement();
  cluster->run_rounds(15, false);
  const auto& m = cluster->metrics();
  EXPECT_GT(m.messages_completed, m.messages_sent * 7 / 10);
}

TEST(Cluster, UmbrellaHeaderCompiles) {
  // drum.hpp is exercised by this TU's includes indirectly; the real check
  // is the dedicated example binaries. Here: the public API surface used by
  // a downstream adopter is callable end-to-end.
  ClusterConfig cfg;
  cfg.n = 10;
  cfg.round_us = 5000;
  cfg.rate = 2;
  Cluster cluster(cfg);
  cluster.run_rounds(8, true);
  EXPECT_GT(cluster.merged_registry().counter_value("node.delivered"), 0u);
}

}  // namespace
}  // namespace drum::harness

namespace drum::harness {
namespace {

TEST(Cluster, UdpClusterUnderAttackStillDelivers) {
  // Exercises the real-socket attacker path: fabricated datagrams are sent
  // from a genuine UDP socket at the victims' well-known ports.
  auto cfg = small_config(core::Variant::kDrum);
  cfg.n = 12;
  cfg.use_udp = true;
  cfg.udp_base_port = 24200;
  cfg.rate = 3;
  cfg.alpha = 0.2;
  cfg.x = 64;
  cfg.verify_signatures = false;
  auto cluster = run_scenario(cfg, 3, 12);
  // The flood arrived (box failures at victims) and gossip still works.
  EXPECT_GT(cluster->merged_registry().counter_value("node.box_failures"),
            20u);
  EXPECT_GT(cluster->metrics().messages_completed, 0u);
}

TEST(Cluster, LargerFanoutConfig) {
  // F = 6: Drum splits 3+3; everything still works end to end.
  auto cfg = small_config(core::Variant::kDrum);
  cfg.fanout = 6;
  auto cluster = run_scenario(cfg, 3, 12);
  EXPECT_GT(cluster->metrics().messages_completed,
            cluster->metrics().messages_sent * 8 / 10);
}

TEST(Cluster, PerNodeRegistriesDistinguishAttackedFromNot) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.alpha = 0.25;
  cfg.x = 64;
  auto cluster = run_scenario(cfg);

  std::uint64_t att_flushed = 0, non_flushed = 0;
  std::uint64_t sum_flushed = 0, sum_delivered = 0;
  std::size_t n_att = 0;
  for (std::size_t i = 0; i < cluster->correct_count(); ++i) {
    const auto& reg = cluster->node(i).registry();
    bool attacked = cluster->is_attacked(cluster->node(i).config().id);
    std::uint64_t flushed = reg.counter_value("node.flushed_unread");
    (attacked ? att_flushed : non_flushed) += flushed;
    n_att += attacked ? 1 : 0;
    sum_flushed += flushed;
    sum_delivered += reg.counter_value("node.delivered");
  }
  EXPECT_GT(n_att, 0u);
  EXPECT_LT(n_att, cluster->correct_count());
  // Only the victims receive the flood, so only they discard unread input.
  EXPECT_GT(att_flushed, 0u);
  EXPECT_GT(att_flushed, non_flushed);
  // The merged-registry splits partition the totals.
  auto total = cluster->merged_registry(Cluster::NodeSet::kAll);
  auto att = cluster->merged_registry(Cluster::NodeSet::kAttacked);
  auto non = cluster->merged_registry(Cluster::NodeSet::kNonAttacked);
  EXPECT_EQ(att.counter_value("node.flushed_unread") +
                non.counter_value("node.flushed_unread"),
            total.counter_value("node.flushed_unread"));
  EXPECT_EQ(att.counter_value("node.delivered") +
                non.counter_value("node.delivered"),
            total.counter_value("node.delivered"));
  EXPECT_EQ(sum_flushed, total.counter_value("node.flushed_unread"));
  EXPECT_EQ(sum_delivered, total.counter_value("node.delivered"));
}

TEST(Cluster, MergedRegistryAndJsonCoverChannels) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.alpha = 0.25;
  cfg.x = 64;
  auto cluster = run_scenario(cfg);

  auto all = cluster->merged_registry(Cluster::NodeSet::kAll);
  auto att = cluster->merged_registry(Cluster::NodeSet::kAttacked);
  auto non = cluster->merged_registry(Cluster::NodeSet::kNonAttacked);
  EXPECT_EQ(all.counter_value("node.rounds"),
            att.counter_value("node.rounds") +
                non.counter_value("node.rounds"));
  // Attacked nodes flushed the flood from their control channels.
  EXPECT_GT(att.counter_value("chan.offer.flushed_unread") +
                att.counter_value("chan.pull_req.flushed_unread"),
            0u);
  // Per-channel budget-consumption histograms exist and have samples.
  const auto* h = all.find_histogram("chan.offer.budget_used");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);

  std::string json = cluster->metrics_json();
  for (const char* key :
       {"\"config\"", "\"nodes\"", "\"attacked\"", "\"non_attacked\"",
        "\"net\"", "\"per_node\"", "\"chan.offer.flushed_unread\"",
        "\"chan.offer.budget_used\"", "\"chan.offer.budget_exhausted\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Cluster, TimeSeriesSamplesMeasurementWindow) {
  auto cfg = small_config(core::Variant::kDrum);
  auto cluster = run_scenario(cfg, 3, 12);
  const auto& ts = cluster->timeseries();
  ASSERT_EQ(ts.columns().size(), 5u);
  EXPECT_EQ(ts.columns()[0], "round");
  // ~one sample per round of the 12-round window.
  EXPECT_GE(ts.rows(), 10u);
  EXPECT_LE(ts.rows(), 14u);
  // Cumulative columns are monotone.
  const auto& data = ts.data();
  for (std::size_t i = 1; i < data.size(); ++i) {
    EXPECT_GE(data[i][1], data[i - 1][1]);  // t_us
    EXPECT_GE(data[i][2], data[i - 1][2]);  // delivered
  }
  EXPECT_GT(data.back()[2], 0);  // workload delivered during the window
}

TEST(Cluster, TraceRingCapturesRoundTicksWhenEnabled) {
  auto cfg = small_config(core::Variant::kDrum);
  cfg.trace_capacity = 1 << 14;
  auto cluster = run_scenario(cfg, 2, 6);
  // Index 0 is the source (it never delivers its own messages); inspect a
  // plain receiver.
  ASSERT_NE(cluster->trace(1), nullptr);
  auto events = cluster->trace(1)->snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_tick = false, saw_deliver = false;
  for (const auto& e : events) {
    saw_tick |= e.kind == obs::EventKind::kRoundTick;
    saw_deliver |= e.kind == obs::EventKind::kDeliver;
  }
  EXPECT_TRUE(saw_tick);
  EXPECT_TRUE(saw_deliver);
  // Tracing off by default.
  ClusterConfig plain = small_config(core::Variant::kDrum);
  Cluster off(plain);
  EXPECT_EQ(off.trace(0), nullptr);
}

// ------------------------------------------------- group and attacker

GroupConfig group_config(double malicious, double alpha) {
  GroupConfig g;
  g.n = 20;
  g.malicious = malicious;
  g.alpha = alpha;
  g.base_port = 4000;
  return g;
}

// The simulator's layout: insiders first, then the source, which heads the
// victims.
TEST(Group, InsidersFirstThenSourceThenVictims) {
  util::Rng rng(3);
  Group g(group_config(0.1, 0.25), rng);
  ASSERT_EQ(g.size(), 20u);
  EXPECT_EQ(std::vector<std::uint32_t>(g.insiders().begin(),
                                       g.insiders().end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(g.first_live(), 2u);  // the source
  EXPECT_EQ(std::vector<std::uint32_t>(g.victims().begin(),
                                       g.victims().end()),
            (std::vector<std::uint32_t>{2, 3, 4, 5, 6}));
  EXPECT_FALSE(g.is_victim(1));
  EXPECT_TRUE(g.is_victim(6));
  EXPECT_FALSE(g.is_victim(7));
  const core::Peer& p = g.peer(7);
  EXPECT_EQ(p.id, 7u);
  EXPECT_EQ(p.host, 7u);
  EXPECT_EQ(p.wk_pull_port, 4021);
  EXPECT_EQ(p.wk_offer_port, 4022);
  EXPECT_EQ(p.wk_pull_reply_port, 4023);
  EXPECT_EQ(p.dh_pub, g.identity(7).dh_public());
  EXPECT_EQ(g.node_config(core::Variant::kDrum, 7, 4).wk_offer_port, 4022);

  util::Rng rng2(3);
  EXPECT_THROW(Group(group_config(1.0, 0.1), rng2), std::invalid_argument);
  GroupConfig tiny = group_config(0.0, 0.0);
  tiny.n = 3;
  EXPECT_THROW(Group(tiny, rng2), std::invalid_argument);
}

// Every flood is spread over the whole round: at x = 16 over 20 bursts each
// victim's offer and pull halves (8 each) land on two bursts in every five,
// through the end of the round, instead of on the first eight bursts.
TEST(Attacker, SpreadsEachFloodEvenlyOverTheRound) {
  check::reset_nonce_tracker();
  util::Rng rng(4);
  Group g(group_config(0.1, 0.1), rng);  // victims 2 and 3
  Attacker a(g, core::Variant::kDrum, 4, "flood", adversary::Params{.x = 16},
             1, 20);
  ASSERT_TRUE(a.armed());
  for (int round = 0; round < 2; ++round) {
    std::size_t total = 0;
    for (std::size_t b = 0; b < 20; ++b) {
      const std::size_t sent = a.send_burst({});
      EXPECT_EQ(sent, b % 5 == 2 || b % 5 == 4 ? 4u : 0u) << "burst " << b;
      total += sent;
    }
    EXPECT_TRUE(a.round_done());
    EXPECT_EQ(total, 16u * 2);
  }
}

// One arming rule for both harnesses: victims, a budget or insiders, and a
// first plan that sends something.
TEST(Attacker, ArmsOnlyWhenItHasSomethingToSend) {
  util::Rng rng(5);
  const Group with_insiders(group_config(0.1, 0.1), rng);
  const Group no_insiders(group_config(0.0, 0.1), rng);
  const Group no_victims(group_config(0.1, 0.0), rng);
  auto armed = [](const Group& g, const char* strategy, double x) {
    return Attacker(g, core::Variant::kDrum, 4, strategy,
                    adversary::Params{.x = x}, 1, 20)
        .armed();
  };
  // Cluster: the flood at x = 0 plans nothing, insiders or not.
  EXPECT_FALSE(armed(with_insiders, "flood", 0));
  EXPECT_FALSE(armed(no_insiders, "flood", 0));
  EXPECT_TRUE(armed(with_insiders, "flood", 128));
  EXPECT_FALSE(armed(no_victims, "flood", 128));
  // Insider strategies act without a budget; nothing acts without both.
  EXPECT_TRUE(armed(with_insiders, "pull-amplify", 0));
  EXPECT_TRUE(armed(with_insiders, "eclipse", 0));
  EXPECT_FALSE(armed(no_insiders, "slow-drip", 0));
  EXPECT_TRUE(armed(no_insiders, "slow-drip", 1));
  // An eclipse needs insiders to send anything.
  EXPECT_FALSE(armed(no_insiders, "eclipse", 64));
  EXPECT_THROW(armed(with_insiders, "no-such-strategy", 1),
               std::invalid_argument);
}

// Spoofed frames fail the victim's port box; insider frames are sealed under
// the colluder's real pair key and pass it.
TEST(Attacker, InsiderFramesAuthenticateAndSpoofedOnesDoNot) {
  auto box_failures_at_victim = [](const char* strategy) {
    check::reset_nonce_tracker();
    util::Rng rng(6);
    Group g(group_config(0.2, 0.05), rng);  // insiders 0-3, victim 4
    auto transport = g.mem_net()->transport(4);
    core::Node victim(g.node_config(core::Variant::kDrum, 4, 4),
                      g.identity(4), g.directory(), *transport, 1, nullptr);
    Attacker a(g, core::Variant::kDrum, 4, strategy,
               adversary::Params{.x = 64}, 1, 1);
    EXPECT_TRUE(a.armed());
    EXPECT_GT(a.send_burst({}), 0u);
    core::ingress::IngressBatch batch;
    victim.drain_ingress(batch);
    batch.dispatch();
    EXPECT_GT(victim.registry().counter_value("node.datagrams_read"), 0u);
    return victim.registry().counter_value("node.box_failures");
  };
  EXPECT_GT(box_failures_at_victim("flood"), 0u);
  EXPECT_EQ(box_failures_at_victim("pull-amplify"), 0u);
}

// Cluster places insiders, source and victims by the group's rule, and arms
// no attacker at x = 0.
TEST(Cluster, UsesTheSharedLayout) {
  auto cfg = small_config(core::Variant::kDrum);  // n = 20, 10% malicious
  cfg.alpha = 0.25;
  cfg.x = 64;
  Cluster attacked(cfg);
  EXPECT_EQ(attacked.source_id(), 2u);
  EXPECT_EQ(attacked.correct_count(), 18u);
  EXPECT_EQ(attacked.node(0).config().id, 2u);
  EXPECT_TRUE(attacked.is_attacked(2));
  EXPECT_TRUE(attacked.is_attacked(6));
  EXPECT_FALSE(attacked.is_attacked(7));
  cfg.x = 0;
  Cluster quiet(cfg);
  EXPECT_FALSE(quiet.is_attacked(2));
}

// Regression: start()/stop() used to check-and-set a naked `started_` bool
// and join the attacker thread without any lock, so two concurrent stop()
// calls could both see started_ == true and both join attacker_ — undefined
// behavior. The lifecycle mutex makes every interleaving safe; this hammers it.
TEST(Swarm, ConcurrentStopAndRestartAreSafe) {
  SwarmConfig cfg;
  cfg.n = 8;
  cfg.alpha = 0.5;  // arm the attacker thread: the race needs its join
  cfg.attack_params.x = 4;
  cfg.round = std::chrono::milliseconds(20);
  cfg.seed = 7;
  Swarm swarm(cfg);
  for (int cycle = 0; cycle < 2; ++cycle) {
    swarm.start();
    swarm.run_for(std::chrono::milliseconds(30));
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&swarm] { swarm.stop(); });
    }
    for (auto& t : stoppers) t.join();
  }
  EXPECT_GE(swarm.report().rounds, 1u);
}

}  // namespace
}  // namespace drum::harness

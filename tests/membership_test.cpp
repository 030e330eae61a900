// Tests for the dynamic membership layer (paper §10): certificates, the CA,
// the validated membership table (anti-forgery, anti-replay, expiry), the
// local failure detector, and the service wired to real Drum nodes over the
// in-memory network.
#include <gtest/gtest.h>

#include "drum/check/check.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/membership/ca.hpp"
#include "drum/membership/failure_detector.hpp"
#include "drum/membership/service.hpp"
#include "drum/membership/table.hpp"
#include "drum/net/mem_transport.hpp"

namespace drum::membership {
namespace {

// One full ingress cycle (drain → verify → ingest) on a private batch — the
// standalone-driver shape of the DESIGN.md §12 pipeline.
void poll_node(core::Node& n) {
  core::ingress::IngressBatch batch;
  n.drain_ingress(batch);
  batch.dispatch();
}

struct CaFixture {
  util::Rng rng{7};
  CertificationAuthority ca{rng, /*default_ttl=*/100};
  std::vector<crypto::Identity> ids;

  MembershipEvent join(std::uint32_t id) {
    while (ids.size() <= id) ids.push_back(crypto::Identity::generate(rng));
    auto ev = ca.authorize_join(id, /*host=*/id,
                                static_cast<std::uint16_t>(1000 + 2 * id),
                                static_cast<std::uint16_t>(1001 + 2 * id),
                                ids[id].sign_public(), ids[id].dh_public());
    EXPECT_TRUE(ev.has_value());
    return *ev;
  }
};

// -------------------------------------------------------- certificates

TEST(Certificate, EncodeDecodeRoundTrip) {
  CaFixture f;
  auto ev = f.join(3);
  auto wire = ev.certificate->encode();
  auto back = Certificate::decode(util::ByteSpan(wire));
  EXPECT_EQ(back.member_id, 3u);
  EXPECT_EQ(back.serial, ev.certificate->serial);
  EXPECT_TRUE(back.verify(f.ca.public_key()));
}

TEST(Certificate, TamperBreaksSignature) {
  CaFixture f;
  auto cert = *f.join(1).certificate;
  EXPECT_TRUE(cert.verify(f.ca.public_key()));
  cert.wk_pull_port ^= 1;  // attacker redirects a port
  EXPECT_FALSE(cert.verify(f.ca.public_key()));
}

TEST(Certificate, ExpiryIsChecked) {
  CaFixture f;
  auto cert = *f.join(1).certificate;
  EXPECT_FALSE(cert.expired(50));
  EXPECT_TRUE(cert.expired(100));
}

TEST(MembershipEventWire, RoundTripAllTypes) {
  CaFixture f;
  auto join_ev = f.join(2);
  auto wire = join_ev.encode();
  auto back = MembershipEvent::decode(util::ByteSpan(wire));
  EXPECT_EQ(back.type, EventType::kJoin);
  ASSERT_TRUE(back.certificate.has_value());
  EXPECT_TRUE(back.verify(f.ca.public_key()));

  auto expel_ev = *f.ca.expel(2);
  auto wire2 = expel_ev.encode();
  auto back2 = MembershipEvent::decode(util::ByteSpan(wire2));
  EXPECT_EQ(back2.type, EventType::kExpel);
  EXPECT_FALSE(back2.certificate.has_value());
  EXPECT_TRUE(back2.verify(f.ca.public_key()));
}

TEST(MembershipEventWire, RejectsGarbage) {
  util::Bytes junk = {9, 9, 9};
  EXPECT_THROW(MembershipEvent::decode(util::ByteSpan(junk)),
               util::DecodeError);
}

// ------------------------------------------------------------------ CA

TEST(Ca, RejectsDoubleJoinUntilExpiry) {
  CaFixture f;
  f.join(1);
  auto dup = f.ca.authorize_join(1, 1, 1, 2, f.ids[1].sign_public(),
                                 f.ids[1].dh_public());
  EXPECT_FALSE(dup.has_value());
  f.ca.set_now(200);  // certificate expired
  auto rejoin = f.ca.authorize_join(1, 1, 1, 2, f.ids[1].sign_public(),
                                    f.ids[1].dh_public());
  EXPECT_TRUE(rejoin.has_value());
}

TEST(Ca, LeaveRequiresMembersSignature) {
  CaFixture f;
  f.join(1);
  f.join(2);
  // Member 2 tries to log member 1 out: signature does not verify.
  auto forged_sig = f.ids[2].sign(
      util::ByteSpan(CertificationAuthority::leave_request_bytes(1)));
  EXPECT_FALSE(f.ca.process_leave(1, forged_sig).has_value());
  // Member 1's own signature works.
  auto good_sig = f.ids[1].sign(
      util::ByteSpan(CertificationAuthority::leave_request_bytes(1)));
  auto ev = f.ca.process_leave(1, good_sig);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->type, EventType::kLeave);
  EXPECT_EQ(f.ca.roster().size(), 1u);
}

TEST(Ca, RenewIssuesFreshSerialAndExpiry) {
  CaFixture f;
  auto first = f.join(1);
  f.ca.set_now(80);
  auto renewed = f.ca.renew(1);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_GT(renewed->certificate->serial, first.certificate->serial);
  EXPECT_EQ(renewed->certificate->expires_at, 180);
  EXPECT_FALSE(f.ca.renew(99).has_value());
}

TEST(Ca, RosterListsLiveMembers) {
  CaFixture f;
  f.join(1);
  f.join(2);
  f.join(3);
  f.ca.expel(2);
  auto roster = f.ca.roster();
  EXPECT_EQ(roster.size(), 2u);
}

// --------------------------------------------------------------- table

TEST(Table, AppliesValidJoinRejectsForged) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  auto ev = f.join(1);
  EXPECT_TRUE(table.apply(ev, 0));
  EXPECT_TRUE(table.is_member(1, 0));

  // Forged event: attacker self-signs a join for id 9.
  auto forged = ev;
  forged.member_id = 9;
  EXPECT_FALSE(table.apply(forged, 0));
  EXPECT_FALSE(table.is_member(9, 0));
}

TEST(Table, LeaveRemovesAndBlocksReplayedJoin) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  auto join_ev = f.join(1);
  table.apply(join_ev, 0);
  auto sig = f.ids[1].sign(
      util::ByteSpan(CertificationAuthority::leave_request_bytes(1)));
  auto leave_ev = *f.ca.process_leave(1, sig);
  EXPECT_TRUE(table.apply(leave_ev, 0));
  EXPECT_FALSE(table.is_member(1, 0));
  // Replaying the original join must not resurrect the member.
  EXPECT_FALSE(table.apply(join_ev, 0));
  EXPECT_FALSE(table.is_member(1, 0));
}

TEST(Table, OutOfOrderLeaveBeatsJoin) {
  // Leave event arrives before the join it revokes (gossip reorders).
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  auto join_ev = f.join(1);
  auto expel_ev = *f.ca.expel(1);
  EXPECT_TRUE(table.apply(expel_ev, 0));
  EXPECT_FALSE(table.apply(join_ev, 0));
  EXPECT_FALSE(table.is_member(1, 0));
}

TEST(Table, ExpiryPrunes) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  table.apply(f.join(1), 0);
  EXPECT_TRUE(table.is_member(1, 50));
  EXPECT_FALSE(table.is_member(1, 150));  // expired even before prune
  table.prune_expired(150);
  EXPECT_EQ(table.size(), 0u);
}

TEST(Table, RenewalSupersedesOldCertificate) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  auto first = f.join(1);
  f.ca.set_now(80);
  auto renewed = *f.ca.renew(1);
  EXPECT_TRUE(table.apply(first, 0));
  EXPECT_TRUE(table.apply(renewed, 80));
  // Old certificate (lower serial) can no longer displace the new one.
  EXPECT_FALSE(table.apply(first, 80));
  EXPECT_TRUE(table.is_member(1, 150));  // renewed expiry 180
}

TEST(Table, DirectoryIndexedById) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  table.apply(f.join(2), 0);
  table.apply(f.join(5), 0);
  auto dir = table.directory(0, /*max_id_hint=*/7);
  ASSERT_EQ(dir.size(), 8u);
  EXPECT_FALSE(dir[0].present);
  EXPECT_TRUE(dir[2].present);
  EXPECT_FALSE(dir[3].present);
  EXPECT_TRUE(dir[5].present);
  EXPECT_EQ(dir[5].id, 5u);
  EXPECT_EQ(dir[5].wk_pull_port, 1010);
}

TEST(Table, SeedRosterSkipsInvalid) {
  CaFixture f;
  MembershipTable table(f.ca.public_key());
  auto good = *f.join(1).certificate;
  auto bad = good;
  bad.member_id = 2;  // breaks signature
  EXPECT_EQ(table.seed_roster({good, bad}, 0), 1u);
  EXPECT_TRUE(table.is_member(1, 0));
  EXPECT_FALSE(table.is_member(2, 0));
}

// apply()'s kJoin and seed_roster() run one admission rule: the same five
// certificates get the same verdicts from both.
TEST(Table, JoinAndRosterAdmitTheSameCertificates) {
  CaFixture f;
  const MembershipEvent expired = f.join(3);  // issued at 0, expires at 100
  f.ca.set_now(150);
  const MembershipEvent valid = f.join(1);
  const MembershipEvent revoked = f.join(4);
  const MembershipEvent expel = *f.ca.expel(4);
  const MembershipEvent stale = f.join(5);
  const MembershipEvent renewed = *f.ca.renew(5);
  MembershipEvent forged = f.join(6);
  forged.certificate->ca_signature[0] ^= 1;

  const std::int64_t now = 150;
  MembershipTable by_event(f.ca.public_key());
  MembershipTable by_roster(f.ca.public_key());
  for (MembershipTable* t : {&by_event, &by_roster}) {
    ASSERT_TRUE(t->apply(expel, now));
    ASSERT_TRUE(t->apply(renewed, now));
  }
  const struct {
    const char* name;
    const MembershipEvent* event;
    bool admitted;
  } cases[] = {{"valid", &valid, true},
               {"expired", &expired, false},
               {"revoked serial", &revoked, false},
               {"stale serial", &stale, false},
               {"bad CA signature", &forged, false}};
  for (const auto& c : cases) {
    EXPECT_EQ(by_event.apply(*c.event, now), c.admitted) << c.name;
    EXPECT_EQ(by_roster.seed_roster({*c.event->certificate}, now),
              c.admitted ? 1u : 0u)
        << c.name;
  }
}

// ---------------------------------------------------- failure detector

TEST(FailureDetector, SuspectsAfterSilence) {
  FailureDetector fd(/*suspicion_rounds=*/5, /*probe_interval=*/2);
  fd.track(1, 0);
  fd.track(2, 0);
  fd.heard_from(1, 4);
  EXPECT_FALSE(fd.is_suspected(1, 6));
  EXPECT_TRUE(fd.is_suspected(2, 6));
  EXPECT_EQ(fd.suspected(6), std::vector<std::uint32_t>{2});
  // Hearing from a suspect clears the suspicion.
  fd.heard_from(2, 7);
  EXPECT_FALSE(fd.is_suspected(2, 8));
}

TEST(FailureDetector, UntrackedNeverSuspected) {
  FailureDetector fd(5, 2);
  EXPECT_FALSE(fd.is_suspected(42, 100));
  fd.track(1, 0);
  fd.forget(1);
  EXPECT_FALSE(fd.is_suspected(1, 100));
}

TEST(FailureDetector, ProbesAreRateLimited) {
  FailureDetector fd(10, 3);
  fd.track(1, 0);
  EXPECT_TRUE(fd.due_probes(3) == std::vector<std::uint32_t>{1});
  EXPECT_TRUE(fd.due_probes(4).empty());  // just probed
  EXPECT_TRUE(fd.due_probes(6) == std::vector<std::uint32_t>{1});
}

// -------------------------------------------------- service + real nodes

struct TwoNodeFixture {
  util::Rng rng{11};
  net::MemNetwork net;
  CertificationAuthority ca{rng, 1000};
  std::vector<crypto::Identity> ids;
  std::vector<std::unique_ptr<net::Transport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  std::vector<std::unique_ptr<MembershipService>> services;
  std::vector<std::vector<core::Node::Delivery>> app_deliveries;

  // Every fixture re-creates the same identities from the same seed: open a
  // new nonce-tracker window so one process can run many fixtures.
  TwoNodeFixture() { check::reset_nonce_tracker(); }

  void add_node(std::uint32_t id, bool seed_roster_now = true) {
    while (ids.size() <= id) ids.push_back(crypto::Identity::generate(rng));
    auto ev = ca.authorize_join(id, id, static_cast<std::uint16_t>(4000 + 2 * id),
                                static_cast<std::uint16_t>(4001 + 2 * id),
                                ids[id].sign_public(), ids[id].dh_public());
    ASSERT_TRUE(ev.has_value());
    transports.push_back(net.transport(id));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = static_cast<std::uint16_t>(4000 + 2 * id);
    cfg.wk_offer_port = static_cast<std::uint16_t>(4001 + 2 * id);
    // Bootstrap directory: just self (the service will fill the rest).
    std::vector<core::Peer> self_dir(id + 1);
    for (std::uint32_t i = 0; i <= id; ++i) {
      self_dir[i].id = i;
      self_dir[i].present = (i == id);
    }
    self_dir[id] = ev->certificate->to_peer();
    std::size_t slot = nodes.size();
    app_deliveries.emplace_back();
    nodes.push_back(std::make_unique<core::Node>(
        cfg, ids[id], self_dir, *transports.back(), rng.next(),
        [this, slot](const core::Node::Delivery& d) {
          if (!services[slot]->handle_delivery(d)) {
            app_deliveries[slot].push_back(d);
          }
        }));
    services.push_back(std::make_unique<MembershipService>(
        ca.public_key(), *nodes.back(), ca.now()));
    if (seed_roster_now) services.back()->bootstrap(ca.roster());
  }

  /// Re-seeds every service with the CA's current roster — models the
  /// CA-provided initial membership list each node gets (nodes added first
  /// only knew the roster as of their own join).
  void sync_roster() {
    for (auto& s : services) s->bootstrap(ca.roster());
  }

  void run_rounds(std::size_t rounds) {
    for (std::size_t r = 0; r < rounds; ++r) {
      for (auto& n : nodes) n->on_round();
      for (std::size_t i = 0; i < services.size(); ++i) {
        services[i]->on_round(ca.now());
      }
      for (int sweep = 0; sweep < 4; ++sweep) {
        for (auto& n : nodes) poll_node(*n);
      }
    }
  }
};

TEST(Service, JoinEventPropagatesThroughGossip) {
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 4; ++id) f.add_node(id);
  f.sync_roster();
  f.run_rounds(3);
  // A fifth member joins; an existing member publishes the CA's event.
  auto id5 = crypto::Identity::generate(f.rng);
  auto ev = f.ca.authorize_join(4, 4, 4008, 4009, id5.sign_public(),
                                id5.dh_public());
  ASSERT_TRUE(ev.has_value());
  f.services[0]->publish(*ev);
  f.run_rounds(6);
  for (std::size_t i = 0; i < f.services.size(); ++i) {
    EXPECT_TRUE(f.services[i]->table().is_member(4, f.ca.now()))
        << "node " << i;
  }
}

TEST(Service, ExpelRemovesEverywhereAndAppDataStillFlows) {
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 4; ++id) f.add_node(id);
  f.sync_roster();
  f.run_rounds(3);
  auto ev = *f.ca.expel(3);
  f.services[0]->publish(ev);
  f.run_rounds(6);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(f.services[i]->table().is_member(3, f.ca.now()));
  }
  // Application multicast still reaches the remaining members.
  util::Bytes data = {'h', 'i'};
  f.nodes[1]->multicast(util::ByteSpan(data));
  f.run_rounds(6);
  EXPECT_FALSE(f.app_deliveries[0].empty());
  EXPECT_FALSE(f.app_deliveries[2].empty());
  EXPECT_EQ(f.app_deliveries[0].back().msg.payload, data);
}

TEST(Service, ForgedCertificateOfSuspectedMemberAdmitsNoForeignKeys) {
  // After 40 silent rounds node 0 suspects member 2, so 2 is missing from
  // node 0's directory and a pull request claiming to be from 2 goes to the
  // certificate validator. The request carries 2's certificate re-keyed to
  // an outsider (its CA signature no longer verifies) and a box sealed
  // under the outsider's pair key: the box must fail, and go unserved.
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 3; ++id) f.add_node(id);
  f.sync_roster();
  f.run_rounds(40);
  core::Node& victim = *f.nodes[0];
  ASSERT_TRUE(
      f.services[0]->failure_detector().is_suspected(2, victim.round()));

  const auto outsider = crypto::Identity::generate(f.rng);
  Certificate forged = f.ca.roster()[2];
  ASSERT_EQ(forged.member_id, 2u);
  forged.sign_pub = outsider.sign_public();
  forged.dh_pub = outsider.dh_public();
  core::PullRequest req;
  req.sender = 2;
  req.cert = forged.encode();
  const auto key = outsider.derive_pair_key(f.ids[0].dh_public());
  req.boxed_reply_port =
      crypto::portbox_seal_port(util::ByteSpan(key), 50000, f.rng);

  const auto& reg = victim.registry();
  const auto served = reg.counter_value("node.pull_requests_served");
  const auto box_failures = reg.counter_value("node.box_failures");
  f.net.send_raw(net::Address{2, 60000}, net::Address{0, 4000},
                 util::ByteSpan(core::encode(req)));
  poll_node(victim);
  EXPECT_EQ(reg.counter_value("node.box_failures"), box_failures + 1);
  EXPECT_EQ(reg.counter_value("node.pull_requests_served"), served);
}

TEST(Service, ForgedEventsCountedAsRejected) {
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 3; ++id) f.add_node(id);
  f.sync_roster();
  f.run_rounds(2);
  // Node 1 multicasts a self-signed (invalid) expel for node 2.
  auto forged = *f.ca.expel(2);  // valid content...
  forged.member_id = 0;          // ...tampered target
  f.services[1]->publish(forged);
  f.run_rounds(5);
  EXPECT_TRUE(f.services[0]->table().is_member(0, f.ca.now()));
  EXPECT_GT(f.services[0]->events_rejected(), 0u);
  // Re-admit 2 for cleanliness of the CA state (not strictly needed).
}

}  // namespace
}  // namespace drum::membership

namespace drum::membership {
namespace {

TEST(Service, CertRepublishLetsLateJoinerConverge) {
  // §10 piggybacking: a member that joins with an EMPTY roster (it got no
  // initial list) still converges, because existing members re-publish
  // their certificates through the multicast.
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 3; ++id) f.add_node(id);
  f.sync_roster();
  // Existing members enable periodic republish of their own certificates.
  for (std::uint32_t id = 0; id < 3; ++id) {
    auto cert = f.ca.roster()[id];
    MembershipEvent ev;
    ev.type = EventType::kJoin;
    ev.member_id = cert.member_id;
    ev.cert_serial = cert.serial;
    ev.timestamp = 0;
    ev.certificate = cert;
    // Re-sign via the CA path: the original join event is equivalent; use
    // renew to get a freshly signed event.
    auto renewed = f.ca.renew(id);
    ASSERT_TRUE(renewed.has_value());
    f.services[id]->enable_cert_republish(*renewed, /*interval_rounds=*/2);
  }
  f.run_rounds(2);

  // Node 3 joins but gets NO initial roster: it knows nobody but itself.
  f.add_node(3, /*seed_roster_now=*/false);
  ASSERT_EQ(f.services[3]->table().size(), 0u);
  // Announce node 3 to the group so they gossip towards it.
  auto ev3 = f.ca.renew(3);
  ASSERT_TRUE(ev3.has_value());
  f.services[0]->publish(*ev3);
  f.services[3]->enable_cert_republish(*ev3, 2);

  f.run_rounds(10);
  // The late joiner has learned every member purely from gossip.
  EXPECT_EQ(f.services[3]->table().size(), 4u);
  for (std::uint32_t id = 0; id < 4; ++id) {
    EXPECT_TRUE(f.services[3]->table().is_member(id, f.ca.now())) << id;
  }
}

}  // namespace
}  // namespace drum::membership

#include "drum/membership/ca_server.hpp"
#include "drum/net/mem_transport.hpp"

namespace drum::membership {
namespace {

struct CaNetFixture {
  util::Rng rng{31};
  net::MemNetwork net;
  CertificationAuthority ca{rng, 500};
  std::unique_ptr<net::Transport> ca_tr;
  std::unique_ptr<CaServer> server;

  CaNetFixture() {
    ca_tr = net.transport(100);
    server = std::make_unique<CaServer>(ca, *ca_tr, 443);
  }
};

TEST(CaServer, JoinOverTheNetwork) {
  CaNetFixture f;
  auto client_tr = f.net.transport(1);
  auto id = crypto::Identity::generate(f.rng);
  CaClient client(*client_tr, net::Address{100, 443});
  client.send_join(1, 1, 4000, 4001, id);
  f.server->poll();
  auto result = client.poll();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->event.type, EventType::kJoin);
  EXPECT_TRUE(result->event.verify(f.ca.public_key()));
  EXPECT_EQ(result->event.member_id, 1u);
  ASSERT_EQ(result->roster.size(), 1u);
  EXPECT_EQ(result->roster[0].member_id, 1u);
  EXPECT_EQ(f.server->served(), 1u);

  // A second joiner receives a 2-member roster.
  auto client_tr2 = f.net.transport(2);
  auto id2 = crypto::Identity::generate(f.rng);
  CaClient client2(*client_tr2, net::Address{100, 443});
  client2.send_join(2, 2, 4002, 4003, id2);
  f.server->poll();
  auto result2 = client2.poll();
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->roster.size(), 2u);
}

TEST(CaServer, RejectsForgedProofOfPossession) {
  CaNetFixture f;
  auto client_tr = f.net.transport(1);
  auto honest = crypto::Identity::generate(f.rng);
  auto thief = crypto::Identity::generate(f.rng);
  // The thief tries to register the honest member's keys: it cannot produce
  // the proof signature. Build a request manually with mismatched proof.
  CaClient client(*client_tr, net::Address{100, 443});
  client.send_join(1, 1, 4000, 4001, honest);  // legitimate
  f.server->poll();
  ASSERT_TRUE(client.poll().has_value());

  // Now the thief re-registers id 2 with the honest keys but its own proof
  // signature: the request-level signature check must fail. (We emulate by
  // signing with the wrong identity via a raw datagram.)
  auto proof_bytes = join_request_proof_bytes(2, 2, 5000, 5001,
                                              honest.sign_public(),
                                              honest.dh_public());
  auto bad_proof = thief.sign(util::ByteSpan(proof_bytes));
  util::ByteWriter w;
  w.u8(1);  // kJoinRequest
  w.u32(2);
  w.u32(2);
  w.u16(5000);
  w.u16(5001);
  w.raw(util::ByteSpan(honest.sign_public().data(), 32));
  w.raw(util::ByteSpan(honest.dh_public().data(), 32));
  w.raw(util::ByteSpan(bad_proof.data(), bad_proof.size()));
  auto payload = w.take();
  f.net.send_raw(net::Address{9, 9}, net::Address{100, 443},
                 util::ByteSpan(payload));
  auto before = f.server->rejected();
  f.server->poll();
  EXPECT_EQ(f.server->rejected(), before + 1);
  EXPECT_FALSE(f.ca.roster().size() > 1);
}

TEST(CaServer, LeaveOverTheNetworkAndGarbageTolerance) {
  CaNetFixture f;
  auto client_tr = f.net.transport(1);
  auto id = crypto::Identity::generate(f.rng);
  CaClient client(*client_tr, net::Address{100, 443});
  client.send_join(1, 1, 4000, 4001, id);
  f.server->poll();
  ASSERT_TRUE(client.poll().has_value());

  // Garbage at the CA port must not crash or corrupt it.
  util::Bytes junk = {1, 2, 3};
  f.net.send_raw(net::Address{9, 9}, net::Address{100, 443},
                 util::ByteSpan(junk));
  f.server->poll();

  client.send_leave(1, id);
  f.server->poll();
  client.poll();
  ASSERT_TRUE(client.leave_event().has_value());
  EXPECT_EQ(client.leave_event()->type, EventType::kLeave);
  EXPECT_TRUE(client.leave_event()->verify(f.ca.public_key()));
  EXPECT_EQ(f.ca.roster().size(), 0u);

  // A leave for a non-member is refused with an error.
  client.send_leave(42, id);
  f.server->poll();
  client.poll();
  EXPECT_FALSE(client.last_error().empty());
}

}  // namespace
}  // namespace drum::membership

namespace drum::membership {
namespace {

// §10: "The membership protocol might suffer a DoS attack ... This is
// resolved by the mere fact that the dynamic membership protocol operates
// using Drum's multicast protocol as its transport layer."
// We stage the attack with the fixture nodes and check a join event still
// reaches everyone within a handful of rounds.
TEST(Service, MembershipEventsPropagateUnderDoS) {
  TwoNodeFixture f;
  for (std::uint32_t id = 0; id < 6; ++id) f.add_node(id);
  f.sync_roster();
  f.run_rounds(2);

  // Attack: flood the well-known ports of half the members (including the
  // publisher, node 0) with fabricated control messages every round.
  auto flood = [&](std::uint32_t victim, int per_round) {
    util::Bytes junk_pull = {static_cast<std::uint8_t>(
        core::MsgType::kPullRequest), 0, 0, 0};
    util::Bytes junk_offer = {static_cast<std::uint8_t>(
        core::MsgType::kPushOffer), 0, 0, 0};
    for (int i = 0; i < per_round / 2; ++i) {
      f.net.send_raw(net::Address{666, 1},
                     net::Address{victim,
                                  static_cast<std::uint16_t>(4000 + 2 * victim)},
                     util::ByteSpan(junk_pull));
      f.net.send_raw(net::Address{666, 1},
                     net::Address{victim,
                                  static_cast<std::uint16_t>(4001 + 2 * victim)},
                     util::ByteSpan(junk_offer));
    }
  };

  // Admit a 7th member; node 0 (attacked) publishes the event.
  auto id7 = crypto::Identity::generate(f.rng);
  auto ev = f.ca.authorize_join(6, 6, 4012, 4013, id7.sign_public(),
                                id7.dh_public());
  ASSERT_TRUE(ev.has_value());

  // Run rounds with the flood injected before every round.
  f.services[0]->publish(*ev);
  std::size_t converged_at = 1000;
  for (std::size_t r = 0; r < 25; ++r) {
    for (std::uint32_t v = 0; v < 3; ++v) flood(v, 128);
    f.run_rounds(1);
    bool all = true;
    for (auto& s : f.services) {
      all = all && s->table().is_member(6, f.ca.now());
    }
    if (all) {
      converged_at = r;
      break;
    }
  }
  // Drum-borne membership converges despite the attack on the publisher.
  EXPECT_LT(converged_at, 20u);
}

}  // namespace
}  // namespace drum::membership

// Unit tests for the core protocol pieces: wire formats (round-trips,
// malformed-input rejection), the message buffer (dedup, purge, digest,
// missing-selection), and node configuration invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "drum/core/buffer.hpp"
#include "drum/core/config.hpp"
#include "drum/core/message.hpp"
#include "drum/util/rng.hpp"

namespace drum::core {
namespace {

DataMessage make_msg(std::uint32_t source, std::uint64_t seq,
                     const std::string& payload = "payload") {
  DataMessage m;
  m.id = {source, seq};
  m.payload.assign(payload.begin(), payload.end());
  m.round_counter = 1;
  for (std::size_t i = 0; i < m.signature.size(); ++i) {
    m.signature[i] = static_cast<std::uint8_t>(i);
  }
  return m;
}

// ------------------------------------------------------------ messages

TEST(Wire, PullRequestRoundTrip) {
  PullRequest req;
  req.sender = 7;
  req.digest = {{1, 10}, {2, 20}, {1, 11}};
  req.boxed_reply_port = {9, 9, 9, 9};
  auto wire = encode(req);
  EXPECT_EQ(peek_type(util::ByteSpan(wire)), MsgType::kPullRequest);
  auto back = decode_pull_request(util::ByteSpan(wire), 100);
  EXPECT_EQ(back.sender, 7u);
  EXPECT_EQ(back.digest, req.digest);
  EXPECT_EQ(back.boxed_reply_port, req.boxed_reply_port);
}

TEST(Wire, PushOfferPushReplyRoundTrip) {
  PushOffer offer{3, {1, 2, 3}, {}};
  auto wire = encode(offer);
  auto back = decode_push_offer(util::ByteSpan(wire));
  EXPECT_EQ(back.sender, 3u);
  EXPECT_EQ(back.boxed_reply_port, offer.boxed_reply_port);

  PushReply reply;
  reply.sender = 4;
  reply.digest = {{5, 50}};
  reply.boxed_data_port = {7};
  auto wire2 = encode(reply);
  auto back2 = decode_push_reply(util::ByteSpan(wire2), 100);
  EXPECT_EQ(back2.sender, 4u);
  EXPECT_EQ(back2.digest, reply.digest);
}

TEST(Wire, ZeroCopyEncodersMatchOwningEncoders) {
  // encode_pull_reply/encode_push_data (the select_missing hot path) must
  // produce the exact bytes of the owning-struct encoders.
  std::vector<DataMessage> owned = {make_msg(1, 1, "a"), make_msg(2, 5, "bb")};
  std::vector<const DataMessage*> ptrs = {&owned[0], &owned[1]};
  EXPECT_EQ(encode_pull_reply(9, ptrs), encode(PullReply{9, owned}));
  EXPECT_EQ(encode_push_data(9, ptrs), encode(PushData{9, owned}));
  EXPECT_EQ(encode_pull_reply(9, {}), encode(PullReply{9, {}}));
}

TEST(Wire, DataMessagesRoundTrip) {
  PullReply pr;
  pr.sender = 9;
  pr.messages = {make_msg(1, 1, "a"), make_msg(2, 5, "bb")};
  auto wire = encode(pr);
  auto back = decode_pull_reply(util::ByteSpan(wire), 10, 100);
  ASSERT_EQ(back.messages.size(), 2u);
  EXPECT_EQ(back.messages[0].id, (MessageId{1, 1}));
  EXPECT_EQ(back.messages[1].payload, (util::Bytes{'b', 'b'}));
  EXPECT_EQ(back.messages[0].signature, pr.messages[0].signature);

  PushData pd{2, {make_msg(3, 7)}};
  auto wire2 = encode(pd);
  auto back2 = decode_push_data(util::ByteSpan(wire2), 10, 100);
  EXPECT_EQ(back2.messages[0].id, (MessageId{3, 7}));
  EXPECT_EQ(back2.messages[0].round_counter, 1u);
}

TEST(Wire, RejectsWrongType) {
  PushOffer offer{3, {1}, {}};
  auto wire = encode(offer);
  EXPECT_THROW(decode_pull_request(util::ByteSpan(wire), 10),
               util::DecodeError);
}

TEST(Wire, RejectsOversizedDigest) {
  PullRequest req;
  req.sender = 1;
  for (std::uint64_t i = 0; i < 50; ++i) req.digest.push_back({1, i});
  auto wire = encode(req);
  EXPECT_THROW(decode_pull_request(util::ByteSpan(wire), 49),
               util::DecodeError);
  EXPECT_NO_THROW(decode_pull_request(util::ByteSpan(wire), 50));
}

TEST(Wire, RejectsOversizedPayloadAndCount) {
  PullReply pr;
  pr.sender = 1;
  pr.messages = {make_msg(1, 1, std::string(200, 'x'))};
  auto wire = encode(pr);
  EXPECT_THROW(decode_pull_reply(util::ByteSpan(wire), 10, 100),
               util::DecodeError);
  EXPECT_NO_THROW(decode_pull_reply(util::ByteSpan(wire), 10, 200));
  EXPECT_THROW(decode_pull_reply(util::ByteSpan(wire), 0, 200),
               util::DecodeError);
}

TEST(Wire, RejectsTruncatedAndTrailing) {
  PushOffer offer{3, {1, 2, 3, 4}, {}};
  auto wire = encode(offer);
  util::Bytes truncated(wire.begin(), wire.end() - 2);
  EXPECT_THROW(decode_push_offer(util::ByteSpan(truncated)),
               util::DecodeError);
  util::Bytes extended = wire;
  extended.push_back(0);
  EXPECT_THROW(decode_push_offer(util::ByteSpan(extended)), util::DecodeError);
  util::Bytes empty;
  EXPECT_THROW(peek_type(util::ByteSpan(empty)), util::DecodeError);
}

TEST(Wire, FuzzedGarbageNeverCrashes) {
  util::Rng rng(1234);
  for (int iter = 0; iter < 3000; ++iter) {
    util::Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    if (!junk.empty()) {
      junk[0] = static_cast<std::uint8_t>(1 + rng.below(5));  // valid types
    }
    try {
      switch (junk.empty() ? MsgType::kPullRequest
                           : peek_type(util::ByteSpan(junk))) {
        case MsgType::kPullRequest:
          decode_pull_request(util::ByteSpan(junk), 100);
          break;
        case MsgType::kPullReply:
          decode_pull_reply(util::ByteSpan(junk), 10, 100);
          break;
        case MsgType::kPushOffer:
          decode_push_offer(util::ByteSpan(junk));
          break;
        case MsgType::kPushReply:
          decode_push_reply(util::ByteSpan(junk), 100);
          break;
        case MsgType::kPushData:
          decode_push_data(util::ByteSpan(junk), 10, 100);
          break;
      }
    } catch (const util::DecodeError&) {
      // expected for almost all inputs
    }
  }
  SUCCEED();
}

TEST(Wire, SignedBytesExcludeRoundCounter) {
  auto m1 = make_msg(1, 1);
  auto m2 = m1;
  m2.round_counter = 99;
  EXPECT_EQ(m1.signed_bytes(), m2.signed_bytes());
  m2.payload.push_back('!');
  EXPECT_NE(m1.signed_bytes(), m2.signed_bytes());
}

// ------------------------------------------------------------- buffer

TEST(Buffer, InsertDedupsAndReportsSeen) {
  MessageBuffer buf(10, 20);
  EXPECT_TRUE(buf.insert(make_msg(1, 1), 0));
  EXPECT_FALSE(buf.insert(make_msg(1, 1), 0));
  EXPECT_TRUE(buf.seen({1, 1}));
  EXPECT_FALSE(buf.seen({1, 2}));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Buffer, PurgesAfterBufferRoundsButRemembersSeen) {
  MessageBuffer buf(3, 10);
  buf.insert(make_msg(1, 1), 0);
  for (std::uint64_t r = 1; r <= 3; ++r) buf.on_round(r);
  EXPECT_EQ(buf.size(), 0u);         // purged from gossip buffer
  EXPECT_TRUE(buf.seen({1, 1}));     // still deduped
  EXPECT_FALSE(buf.insert(make_msg(1, 1), 3));
  for (std::uint64_t r = 4; r <= 10; ++r) buf.on_round(r);
  // The seen set forgets the id; its source's floor keeps it seen.
  EXPECT_TRUE(buf.seen({1, 1}));
  EXPECT_FALSE(buf.insert(make_msg(1, 1), 10));
}

// Nothing bounds how long copies circulate — each new holder buffers its
// copy for buffer_rounds of its own — so a copy can come back after the
// seen set forgot the id. The id, and every older seqno of its source,
// stays seen; newer seqnos and other sources are untouched.
TEST(Buffer, ExpiredIdsAndOlderSeqnosOfTheirSourceStaySeen) {
  MessageBuffer buf(3, 10);
  ASSERT_TRUE(buf.insert(make_msg(1, 5), 0));
  for (std::uint64_t r = 1; r <= 30; ++r) buf.on_round(r);
  buf.check_invariants(30);
  EXPECT_TRUE(buf.seen({1, 5}));
  EXPECT_TRUE(buf.seen({1, 4}));
  EXPECT_FALSE(buf.insert(make_msg(1, 5), 30));
  EXPECT_FALSE(buf.insert(make_msg(1, 4), 30));
  EXPECT_FALSE(buf.seen({1, 6}));
  EXPECT_FALSE(buf.seen({2, 4}));
  EXPECT_TRUE(buf.insert(make_msg(1, 6), 30));
  EXPECT_TRUE(buf.insert(make_msg(2, 4), 30));
  buf.check_invariants(30);
}

TEST(Buffer, RoundCounterIncrementsWhileBuffered) {
  MessageBuffer buf(10, 20);
  buf.insert(make_msg(1, 1), 0);  // round_counter starts at 1
  buf.on_round(1);
  buf.on_round(2);
  util::Rng rng(1);
  auto msgs = buf.select_missing({}, 10, rng);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0]->round_counter, 3u);
}

TEST(Buffer, DigestListsBufferedIds) {
  MessageBuffer buf(10, 20);
  buf.insert(make_msg(1, 1), 0);
  buf.insert(make_msg(2, 7), 0);
  auto d = buf.digest();
  EXPECT_EQ(d.size(), 2u);
  std::sort(d.begin(), d.end());
  EXPECT_EQ(d[0], (MessageId{1, 1}));
  EXPECT_EQ(d[1], (MessageId{2, 7}));
}

TEST(Buffer, SelectMissingExcludesPeerHoldings) {
  MessageBuffer buf(10, 20);
  for (std::uint64_t i = 0; i < 10; ++i) buf.insert(make_msg(1, i), 0);
  util::Rng rng(2);
  Digest peer_has = {{1, 0}, {1, 1}, {1, 2}};
  auto missing = buf.select_missing(peer_has, 100, rng);
  EXPECT_EQ(missing.size(), 7u);
  for (const auto* m : missing) EXPECT_GE(m->id.seqno, 3u);
}

TEST(Buffer, SelectMissingRespectsCapAndIsRandom) {
  MessageBuffer buf(10, 20);
  for (std::uint64_t i = 0; i < 50; ++i) buf.insert(make_msg(1, i), 0);
  util::Rng rng(3);
  auto a = buf.select_missing({}, 5, rng);
  auto b = buf.select_missing({}, 5, rng);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(b.size(), 5u);
  auto key = [](const std::vector<const DataMessage*>& v) {
    std::vector<std::uint64_t> k;
    for (const auto* m : v) k.push_back(m->id.seqno);
    std::sort(k.begin(), k.end());
    return k;
  };
  // With 50-choose-5 possibilities, two identical picks mean broken RNG.
  EXPECT_NE(key(a), key(b));
}

// Inserts at rounds 0, 2 and 5 leave the buffer exactly buffer_rounds and
// the seen set exactly seen_rounds after their own insertion, whatever else
// is buffered. The seen set's deadline shows through the floor: seqnos 1, 3
// and 5 are inserted, and the never-inserted 0, 2 and 4 turn seen exactly
// when the seqno above them leaves the seen set.
TEST(Buffer, EntriesExpireExactlyAtTheirOwnDeadlines) {
  constexpr std::uint64_t kBuffer = 3, kSeen = 7;
  MessageBuffer buf(kBuffer, kSeen);
  const std::uint64_t inserted_at[] = {0, 2, 5};
  for (std::uint64_t r = 0; r <= 13; ++r) {
    if (r > 0) buf.on_round(r);
    for (std::uint64_t i = 0; i < 3; ++i) {
      if (inserted_at[i] == r) {
        ASSERT_TRUE(buf.insert(make_msg(1, 2 * i + 1), r));
        ASSERT_TRUE(buf.insert(make_msg(2, 2 * i + 1), r));
      }
    }
    std::size_t want_buffered = 0;
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint64_t at = inserted_at[i];
      const bool buffered = at <= r && r < at + kBuffer;
      const bool forgotten = at + kSeen <= r;
      want_buffered += buffered ? 2 : 0;
      for (const std::uint32_t source : {1U, 2U}) {
        EXPECT_EQ(buf.seen({source, 2 * i + 1}), at <= r)
            << "round " << r << " source " << source << " seqno " << 2 * i + 1;
        EXPECT_EQ(buf.seen({source, 2 * i}), forgotten)
            << "round " << r << " source " << source << " seqno " << 2 * i;
      }
    }
    EXPECT_EQ(buf.size(), want_buffered) << "round " << r;
    EXPECT_EQ(buf.digest().size(), want_buffered) << "round " << r;
    buf.check_invariants(r);
  }
}

TEST(Buffer, RoundCounterCountsTicksSinceInsertion) {
  MessageBuffer buf(10, 20);
  auto early = make_msg(1, 1);
  early.round_counter = 4;
  buf.insert(std::move(early), 0);
  buf.on_round(1);
  buf.on_round(2);
  buf.insert(make_msg(1, 2), 2);  // round_counter 1
  util::Rng rng(5);
  auto counters = [&] {
    std::map<std::uint64_t, std::uint32_t> out;
    for (const auto* m : buf.select_missing({}, 10, rng)) {
      out[m->id.seqno] = m->round_counter;
    }
    return out;
  };
  EXPECT_EQ(counters(), (std::map<std::uint64_t, std::uint32_t>{{1, 6}, {2, 1}}));
  // Selecting again without a tick does not age anything twice.
  EXPECT_EQ(counters(), (std::map<std::uint64_t, std::uint32_t>{{1, 6}, {2, 1}}));
  for (std::uint64_t r = 3; r <= 5; ++r) buf.on_round(r);
  EXPECT_EQ(counters(), (std::map<std::uint64_t, std::uint32_t>{{1, 9}, {2, 4}}));
}

// With a cap above the buffer size, select_missing returns exactly the
// buffered ids minus the peer's digest — ids the peer lists that are only
// seen, or unknown here, change nothing.
TEST(Buffer, SelectMissingWithLargeCapIsBufferedMinusDigest) {
  MessageBuffer buf(4, 8);
  for (std::uint64_t r = 0; r < 6; ++r) {
    if (r > 0) buf.on_round(r);
    for (std::uint64_t i = 0; i < 5; ++i) buf.insert(make_msg(1, 10 * r + i), r);
  }
  const Digest buffered = buf.digest();
  ASSERT_EQ(buffered.size(), 20u);  // rounds 2..5
  // Oldest first.
  EXPECT_TRUE(std::is_sorted(buffered.begin(), buffered.end()));
  Digest peer = {{1, 0}, {1, 11}, {9, 9}};  // seen only, seen only, unknown
  std::set<MessageId> want(buffered.begin(), buffered.end());
  util::Rng rng(6);
  for (std::size_t i = 0; i < buffered.size(); i += 3) {
    peer.push_back(buffered[i]);
    want.erase(buffered[i]);
  }
  const auto got = buf.select_missing(peer, 1000, rng);
  std::set<MessageId> got_ids;
  for (const auto* m : got) got_ids.insert(m->id);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got_ids, want);
  EXPECT_TRUE(buf.select_missing(buffered, 1000, rng).empty());
}

// ------------------------------------------------------------- config

TEST(Config, DrumSplitsFanout) {
  auto cfg = make_node_config(Variant::kDrum, 1, 4);
  EXPECT_EQ(cfg.view_push(), 2u);
  EXPECT_EQ(cfg.view_pull(), 2u);
  EXPECT_EQ(cfg.offer_budget(), 2u);
  EXPECT_EQ(cfg.pull_request_budget(), 2u);
  EXPECT_EQ(cfg.push_reply_budget(), 2u);
  EXPECT_EQ(cfg.pull_data_budget(), 4u);
  EXPECT_EQ(cfg.push_data_budget(), 4u);
}

TEST(Config, PushOnlyAndPullOnly) {
  auto push = make_node_config(Variant::kPush, 1, 4);
  EXPECT_EQ(push.view_push(), 4u);
  EXPECT_EQ(push.view_pull(), 0u);
  EXPECT_EQ(push.pull_request_budget(), 0u);
  EXPECT_EQ(push.push_reply_budget(), 4u);
  EXPECT_EQ(push.push_data_budget(), 8u);

  auto pull = make_node_config(Variant::kPull, 1, 4);
  EXPECT_EQ(pull.view_push(), 0u);
  EXPECT_EQ(pull.view_pull(), 4u);
  EXPECT_EQ(pull.pull_request_budget(), 4u);
  EXPECT_EQ(pull.pull_data_budget(), 8u);
  EXPECT_FALSE(pull.push_enabled());
}

TEST(Config, SharedBudgetSumsControlBudgets) {
  auto cfg = make_node_config(Variant::kDrumSharedBounds, 1, 4);
  EXPECT_EQ(cfg.shared_control_budget(),
            cfg.max_offers_per_round + cfg.send_capacity);
}

TEST(Config, VariantNames) {
  EXPECT_STREQ(variant_name(Variant::kDrum), "drum");
  EXPECT_STREQ(variant_name(Variant::kDrumWkPorts), "drum-wk-ports");
}

}  // namespace
}  // namespace drum::core

#include "drum/core/groupfile.hpp"
#include "drum/crypto/keys.hpp"

namespace drum::core {
namespace {

TEST(GroupFile, FormatParseRoundTrip) {
  util::Rng rng(44);
  std::vector<Peer> dir(3);
  for (std::uint32_t id = 0; id < 3; ++id) {
    auto identity = crypto::Identity::generate(rng);
    dir[id].id = id;
    dir[id].host = 0x7F000001;  // 127.0.0.1
    dir[id].wk_pull_port = static_cast<std::uint16_t>(28000 + 2 * id);
    dir[id].wk_offer_port = static_cast<std::uint16_t>(28001 + 2 * id);
    dir[id].sign_pub = identity.sign_public();
    dir[id].dh_pub = identity.dh_public();
  }
  auto text = format_group_file(dir);
  auto back = parse_group_file(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 3u);
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_TRUE((*back)[id].present);
    EXPECT_EQ((*back)[id].host, 0x7F000001u);
    EXPECT_EQ((*back)[id].wk_pull_port, dir[id].wk_pull_port);
    EXPECT_EQ((*back)[id].sign_pub, dir[id].sign_pub);
    EXPECT_EQ((*back)[id].dh_pub, dir[id].dh_pub);
  }
}

TEST(GroupFile, SparseIdsLeaveHoles) {
  util::Rng rng(45);
  auto identity = crypto::Identity::generate(rng);
  std::vector<Peer> dir(1);
  dir[0].id = 4;  // only member 4
  dir[0].host = 0x7F000001;
  dir[0].wk_pull_port = 100;
  dir[0].wk_offer_port = 101;
  dir[0].sign_pub = identity.sign_public();
  dir[0].dh_pub = identity.dh_public();
  auto back = parse_group_file(format_group_file(dir));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 5u);
  EXPECT_FALSE((*back)[0].present);
  EXPECT_TRUE((*back)[4].present);
}

TEST(GroupFile, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse_group_file("", &err).has_value());
  EXPECT_FALSE(parse_group_file("0 127.0.0.1 1 2 deadbeef dead\n", &err)
                   .has_value());
  EXPECT_NE(err.find("bad key"), std::string::npos);
  EXPECT_FALSE(parse_group_file("0 not-an-ip 1 2 aa bb\n", &err).has_value());
  EXPECT_FALSE(parse_group_file("0 127.0.0.1 99999 2 aa bb\n", &err)
                   .has_value());
  // Duplicate ids rejected.
  util::Rng rng(46);
  auto identity = crypto::Identity::generate(rng);
  std::vector<Peer> dir(2);
  for (auto& p : dir) {
    p.id = 1;
    p.host = 0x7F000001;
    p.wk_pull_port = 1;
    p.wk_offer_port = 2;
    p.sign_pub = identity.sign_public();
    p.dh_pub = identity.dh_public();
  }
  EXPECT_FALSE(parse_group_file(format_group_file(dir), &err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(GroupFile, CommentsAndBlankLinesIgnored) {
  util::Rng rng(47);
  auto identity = crypto::Identity::generate(rng);
  std::vector<Peer> dir(1);
  dir[0].id = 0;
  dir[0].host = 0x7F000001;
  dir[0].wk_pull_port = 10;
  dir[0].wk_offer_port = 11;
  dir[0].sign_pub = identity.sign_public();
  dir[0].dh_pub = identity.dh_public();
  auto text = "\n# leading comment\n\n" + format_group_file(dir) +
              "\n  # trailing\n";
  EXPECT_TRUE(parse_group_file(text).has_value());
}

TEST(IdentitySecrets, SerializeDeserializeRoundTrip) {
  util::Rng rng(48);
  auto original = crypto::Identity::generate(rng);
  auto secret = original.serialize_secret();
  EXPECT_EQ(secret.size(), 64u);
  auto restored = crypto::Identity::deserialize_secret(util::ByteSpan(secret));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->sign_public(), original.sign_public());
  EXPECT_EQ(restored->dh_public(), original.dh_public());
  // Signatures from the restored identity verify against the original key.
  util::Bytes msg = {1, 2, 3};
  auto sig = restored->sign(util::ByteSpan(msg));
  EXPECT_TRUE(
      crypto::ed25519_verify(original.sign_public(), util::ByteSpan(msg), sig));
  // Wrong length rejected.
  util::Bytes tiny(10);
  EXPECT_FALSE(
      crypto::Identity::deserialize_secret(util::ByteSpan(tiny)).has_value());
}

}  // namespace
}  // namespace drum::core

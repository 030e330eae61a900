// Tests for the network substrate: in-memory transport semantics (binding,
// ephemeral ports, loss, queue bounds, spoofing) and real UDP loopback
// sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "drum/net/mem_transport.hpp"
#include "drum/net/udp_transport.hpp"

namespace drum::net {
namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

TEST(MemTransport, SendReceiveRoundTrip) {
  MemNetwork net;
  auto ta = net.transport(1);
  auto tb = net.transport(2);
  auto sa = ta->bind(100);
  auto sb = tb->bind(200);
  ASSERT_TRUE(sa && sb);

  auto msg = bytes_of("hello");
  sa->send(Address{2, 200}, util::ByteSpan(msg));
  auto got = sb->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg);
  EXPECT_EQ(got->from, (Address{1, 100}));
  EXPECT_EQ(sb->recv(), std::nullopt);  // queue drained
}

TEST(MemTransport, PortCollisionRejectedWithTypedError) {
  MemNetwork net;
  auto t = net.transport(1);
  auto s1 = t->bind(500);
  ASSERT_TRUE(s1);
  auto dup = t->bind(500);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.error(), BindError::kPortTaken);
  EXPECT_EQ(dup.take(), nullptr);
  // Same port on a different host is fine (per-host port spaces).
  auto t2 = net.transport(2);
  EXPECT_TRUE(t2->bind(500).ok());
}

TEST(MemTransport, PortFreedOnSocketDestruction) {
  MemNetwork net;
  auto t = net.transport(1);
  { auto s = t->bind(600); ASSERT_TRUE(s); }
  EXPECT_TRUE(t->bind(600).ok());
}

TEST(BindResult, SuccessReportsNoError) {
  MemNetwork net;
  auto t = net.transport(1);
  auto r = t->bind(700);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.error(), BindError::kNone);
  EXPECT_NE(r.get(), nullptr);
  auto owned = r.take();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(owned->local().port, 700);
  EXPECT_FALSE(r.ok());  // moved out
}

TEST(BindResult, ErrorNamesAreStable) {
  EXPECT_STREQ(to_string(BindError::kNone), "ok");
  EXPECT_STREQ(to_string(BindError::kPortTaken), "port taken");
  EXPECT_STREQ(to_string(BindError::kPortsExhausted),
               "ephemeral ports exhausted");
  EXPECT_STREQ(to_string(BindError::kSystem), "system error");
}

TEST(MemTransport, EphemeralPortsAreHighAndDistinct) {
  MemNetwork net;
  auto t = net.transport(1);
  auto s1 = t->bind(0);
  auto s2 = t->bind(0);
  ASSERT_TRUE(s1 && s2);
  EXPECT_GE(s1->local().port, 49152);
  EXPECT_GE(s2->local().port, 49152);
  EXPECT_NE(s1->local().port, s2->local().port);
}

TEST(MemTransport, SendToUnboundPortIsDropped) {
  MemNetwork net;
  auto t = net.transport(1);
  auto s = t->bind(100);
  auto msg = bytes_of("x");
  auto before = net.dropped();
  s->send(Address{9, 9}, util::ByteSpan(msg));
  EXPECT_EQ(net.dropped(), before + 1);
}

TEST(MemTransport, QueueCapacityBoundsFlood) {
  MemNetwork::Options opts;
  opts.queue_capacity = 10;
  MemNetwork net(opts);
  auto t = net.transport(1);
  auto s = t->bind(100);
  auto msg = bytes_of("flood");
  for (int i = 0; i < 100; ++i) {
    net.send_raw(Address{666, 1}, Address{1, 100}, util::ByteSpan(msg));
  }
  int received = 0;
  while (s->recv()) ++received;
  EXPECT_EQ(received, 10);
  EXPECT_GE(net.dropped(), 90u);
}

TEST(MemTransport, RecvBatchMatchesSequentialRecv) {
  MemNetwork net;
  auto t = net.transport(1);
  auto s = t->bind(100);
  ASSERT_TRUE(s);
  // "m0".."m9", spelled out: GCC 12 flags `"m" + std::to_string(i)` with a
  // -Wrestrict false positive in Release builds.
  auto numbered = [](int i) {
    return bytes_of(std::string{'m', static_cast<char>('0' + i)});
  };
  for (int i = 0; i < 10; ++i) {
    auto msg = numbered(i);
    net.send_raw(Address{2, 7}, Address{1, 100}, util::ByteSpan(msg));
  }
  // A window smaller than the backlog fills exactly; payloads and senders
  // come out in the same order recv() would have produced.
  Datagram out[6];
  ASSERT_EQ(s->recv_batch(out, 6), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].payload, numbered(i));
    EXPECT_EQ(out[i].from, (Address{2, 7}));
  }
  // The remainder drains in one short batch; the queue is then empty.
  EXPECT_EQ(s->recv_batch(out, 6), 4u);
  EXPECT_EQ(out[0].payload, bytes_of("m6"));
  EXPECT_EQ(s->recv_batch(out, 6), 0u);
  EXPECT_EQ(s->recv(), std::nullopt);
}

TEST(MemTransport, RecvBatchHonorsInFlightLatency) {
  MemNetwork::Options opts;
  opts.latency_us = 1000;
  opts.latency_jitter = 0.0;  // deterministic delivery times
  MemNetwork net(opts);
  auto t = net.transport(1);
  auto s = t->bind(100);
  ASSERT_TRUE(s);
  auto early = bytes_of("early");
  net.send_raw(Address{2, 7}, Address{1, 100}, util::ByteSpan(early));
  net.advance_to(1000);
  auto late = bytes_of("late");
  net.send_raw(Address{2, 7}, Address{1, 100}, util::ByteSpan(late));

  // Only the first datagram has reached its delivery time; the batch must
  // stop at the in-flight one rather than popping the whole queue.
  Datagram out[4];
  ASSERT_EQ(s->recv_batch(out, 4), 1u);
  EXPECT_EQ(out[0].payload, early);
  EXPECT_EQ(s->recv_batch(out, 4), 0u);
  net.advance_to(2000);
  ASSERT_EQ(s->recv_batch(out, 4), 1u);
  EXPECT_EQ(out[0].payload, late);
}

TEST(MemTransport, SendManyScattersToDistinctDestinations) {
  MemNetwork net;
  auto t = net.transport(1);
  auto a = t->bind(100);
  auto b = t->bind(200);
  auto sender = net.transport(2)->bind(300);
  ASSERT_TRUE(a && b && sender);

  auto m1 = bytes_of("to-a");
  auto m2 = bytes_of("to-b");
  auto m3 = bytes_of("to-a-again");
  OutboundDatagram msgs[3] = {
      {Address{1, 100}, util::ByteSpan(m1)},
      {Address{1, 200}, util::ByteSpan(m2)},
      {Address{1, 100}, util::ByteSpan(m3)},
  };
  sender->send_many(msgs, 3);

  // Each destination received exactly its datagrams, in send order, with
  // the shared source address — byte-identical to three send() calls.
  Datagram out[4];
  ASSERT_EQ(a->recv_batch(out, 4), 2u);
  EXPECT_EQ(out[0].payload, m1);
  EXPECT_EQ(out[1].payload, m3);
  EXPECT_EQ(out[0].from, (Address{2, 300}));
  ASSERT_EQ(b->recv_batch(out, 4), 1u);
  EXPECT_EQ(out[0].payload, m2);
  EXPECT_EQ(b->recv(), std::nullopt);
}

TEST(MemTransport, SendManyHonorsAdmissionControl) {
  MemNetwork::Options opts;
  opts.queue_capacity = 2;
  MemNetwork net(opts);
  auto t = net.transport(1);
  auto s = t->bind(100);
  auto sender = net.transport(2)->bind(300);
  ASSERT_TRUE(s && sender);

  // One scatter call mixing a bound destination (bounded queue) and an
  // unbound one: per-datagram admission must match send() exactly — the
  // queue fills to capacity, overflow and no-listener datagrams drop.
  auto msg = bytes_of("m");
  std::vector<OutboundDatagram> msgs;
  for (int i = 0; i < 5; ++i) {
    msgs.push_back({Address{1, 100}, util::ByteSpan(msg)});
  }
  msgs.push_back({Address{9, 9}, util::ByteSpan(msg)});
  auto dropped_before = net.dropped();
  sender->send_many(msgs.data(), msgs.size());

  Datagram out[8];
  EXPECT_EQ(s->recv_batch(out, 8), 2u);  // capacity bound held
  EXPECT_EQ(net.dropped(), dropped_before + 4);  // 3 overflow + 1 unbound
}

TEST(MemTransport, LossDropsApproximatelyTheConfiguredFraction) {
  MemNetwork::Options opts;
  opts.loss = 0.25;
  opts.queue_capacity = 100000;
  opts.seed = 7;
  MemNetwork net(opts);
  auto t = net.transport(1);
  auto s = t->bind(100);
  auto msg = bytes_of("y");
  const int kSent = 10000;
  for (int i = 0; i < kSent; ++i) {
    net.send_raw(Address{2, 2}, Address{1, 100}, util::ByteSpan(msg));
  }
  int received = 0;
  while (s->recv()) ++received;
  EXPECT_NEAR(received, kSent * 0.75, kSent * 0.05);
}

TEST(MemTransport, SpoofedSourcePreserved) {
  MemNetwork net;
  auto t = net.transport(1);
  auto s = t->bind(100);
  auto msg = bytes_of("spoof");
  net.send_raw(Address{0xDEADBEEF, 31337}, Address{1, 100},
               util::ByteSpan(msg));
  auto got = s->recv();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->from.host, 0xDEADBEEFu);
  EXPECT_EQ(got->from.port, 31337);
}

TEST(AddressFormat, ToString) {
  EXPECT_EQ(to_string(Address{parse_ipv4("127.0.0.1"), 8080}),
            "127.0.0.1:8080");
  EXPECT_EQ(parse_ipv4("not an ip"), 0u);
}

TEST(UdpTransport, LoopbackRoundTrip) {
  UdpTransport tr;
  auto a = tr.bind(0);
  auto b = tr.bind(0);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->local().port, 0);

  auto msg = bytes_of("over real udp");
  a->send(b->local(), util::ByteSpan(msg));
  // Loopback delivery is fast but asynchronous; poll briefly.
  std::optional<Datagram> got;
  for (int i = 0; i < 1000 && !got; ++i) got = b->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg);
  EXPECT_EQ(got->from, a->local());
}

TEST(UdpTransport, NonBlockingRecvOnEmpty) {
  UdpTransport tr;
  auto s = tr.bind(0);
  ASSERT_TRUE(s);
  EXPECT_EQ(s->recv(), std::nullopt);
}

TEST(UdpTransport, BindCollisionRejectedWithTypedError) {
  UdpTransport tr;
  auto a = tr.bind(0);
  ASSERT_TRUE(a);
  auto dup = tr.bind(a->local().port);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.error(), BindError::kPortTaken);
}

TEST(UdpTransport, EphemeralBindsAreDistinctPorts) {
  UdpTransport tr;
  auto a = tr.bind(0);
  auto b = tr.bind(0);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->local().port, 0);
  EXPECT_NE(b->local().port, 0);
  EXPECT_NE(a->local().port, b->local().port);
}

TEST(UdpTransport, RebindAfterCloseSucceeds) {
  UdpTransport tr;
  std::uint16_t port = 0;
  {
    auto s = tr.bind(0);
    ASSERT_TRUE(s);
    port = s->local().port;
  }
  // Closing the fd releases the port immediately (no TIME_WAIT for UDP).
  auto again = tr.bind(port);
  ASSERT_TRUE(again.ok()) << to_string(again.error());
  EXPECT_EQ(again->local().port, port);
}

TEST(UdpTransport, MaxSizeDatagramPreservesBoundary) {
  UdpTransport tr;
  auto a = tr.bind(0);
  auto b = tr.bind(0);
  ASSERT_TRUE(a && b);
  // 65507 = 65535 - 20 (IP header) - 8 (UDP header): the largest payload a
  // single UDP datagram can carry. It must arrive whole, in one recv.
  constexpr std::size_t kMax = 65507;
  util::Bytes big(kMax);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  a->send(b->local(), util::ByteSpan(big));
  std::optional<Datagram> got;
  for (int i = 0; i < 2000 && !got; ++i) got = b->recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), kMax);
  EXPECT_EQ(got->payload, big);
  EXPECT_EQ(b->recv(), std::nullopt);  // exactly one datagram, not a stream
}

TEST(UdpTransport, BatchedSendAndReceiveRoundTrip) {
  UdpTransport tr;
  auto a = tr.bind(0);
  auto b = tr.bind(0);
  ASSERT_TRUE(a && b);
  constexpr std::size_t kCount = 40;  // > one recvmmsg scratch (16 slots)
  std::vector<util::Bytes> payloads;
  std::vector<util::ByteSpan> spans;
  for (std::size_t i = 0; i < kCount; ++i) {
    payloads.push_back(bytes_of("batch-" + std::to_string(i)));
  }
  for (const auto& p : payloads) spans.emplace_back(p);
  a->send_batch(b->local(), spans.data(), spans.size());

  std::vector<Datagram> got(kCount + 8);
  std::size_t n = 0;
  for (int i = 0; i < 2000 && n < kCount; ++i) {
    n += b->recv_batch(got.data() + n, got.size() - n);
  }
  ASSERT_EQ(n, kCount);
  // Loopback preserves order in practice; compare as sorted multisets to
  // stay robust. (Via strings: GCC 12's -Werror=stringop-overread false-
  // positives on vector<vector<uint8_t>> lexicographic compare, PR105651.)
  std::vector<std::string> seen;
  std::vector<std::string> sent;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].from, a->local());
    seen.emplace_back(got[i].payload.begin(), got[i].payload.end());
  }
  for (const auto& p : payloads) sent.emplace_back(p.begin(), p.end());
  std::sort(seen.begin(), seen.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(seen, sent);
}

TEST(UdpTransport, SendManyScattersAcrossSockets) {
  UdpTransport tr;
  auto sender = tr.bind(0);
  auto a = tr.bind(0);
  auto b = tr.bind(0);
  ASSERT_TRUE(sender && a && b);
  // Alternate destinations across more datagrams than one sendmmsg chunk
  // (64 slots) so the chunking loop and the per-message name binding are
  // both exercised.
  constexpr std::size_t kCount = 150;
  std::vector<util::Bytes> payloads;
  for (std::size_t i = 0; i < kCount; ++i) {
    payloads.push_back(bytes_of("scatter-" + std::to_string(i)));
  }
  std::vector<OutboundDatagram> msgs;
  for (std::size_t i = 0; i < kCount; ++i) {
    msgs.push_back({(i % 2 ? b : a)->local(), util::ByteSpan(payloads[i])});
  }
  sender->send_many(msgs.data(), msgs.size());

  auto drain = [](Socket& s, std::size_t want) {
    std::vector<Datagram> got(want + 8);
    std::size_t n = 0;
    for (int i = 0; i < 2000 && n < want; ++i) {
      n += s.recv_batch(got.data() + n, got.size() - n);
    }
    got.resize(n);
    return got;
  };
  auto got_a = drain(*a, kCount / 2 + 1);
  auto got_b = drain(*b, kCount / 2);
  ASSERT_EQ(got_a.size(), kCount / 2 + kCount % 2);
  ASSERT_EQ(got_b.size(), kCount / 2);
  // Every datagram landed on the socket its entry named (compare as sorted
  // string multisets; loopback may reorder).
  std::vector<std::string> seen_a, want_a;
  for (const auto& d : got_a) {
    EXPECT_EQ(d.from, sender->local());
    seen_a.emplace_back(d.payload.begin(), d.payload.end());
  }
  for (std::size_t i = 0; i < kCount; i += 2) {
    want_a.emplace_back(payloads[i].begin(), payloads[i].end());
  }
  std::sort(seen_a.begin(), seen_a.end());
  std::sort(want_a.begin(), want_a.end());
  EXPECT_EQ(seen_a, want_a);
}

}  // namespace
}  // namespace drum::net

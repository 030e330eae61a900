// Unit tests for drum::util — serialization, RNG, statistics, tables, flags.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/stats.hpp"
#include "drum/util/table.hpp"

namespace drum::util {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  Bytes buf = w.take();

  ByteReader r{ByteSpan(buf)};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Bytes, RoundTripVariableLength) {
  ByteWriter w;
  w.str("hello gossip");
  Bytes payload = {1, 2, 3, 4, 5};
  w.bytes(ByteSpan(payload));
  w.str("");
  Bytes buf = w.take();

  ByteReader r{ByteSpan(buf)};
  EXPECT_EQ(r.str(), "hello gossip");
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ShortReadThrows) {
  Bytes buf = {1, 2, 3};
  ByteReader r{ByteSpan(buf)};
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Bytes, BadLengthPrefixThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(7);
  Bytes buf = w.take();
  ByteReader r{ByteSpan(buf)};
  EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Bytes, TrailingBytesDetected) {
  Bytes buf = {1, 2};
  ByteReader r{ByteSpan(buf)};
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(Bytes, HexRoundTrip) {
  Bytes b = {0xde, 0xad, 0xbe, 0xef, 0x00, 0xff};
  EXPECT_EQ(to_hex(ByteSpan(b)), "deadbeef00ff");
  auto back = from_hex("deadbeef00ff");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, b);
  EXPECT_EQ(from_hex("abc"), std::nullopt);   // odd length
  EXPECT_EQ(from_hex("zz"), std::nullopt);    // non-hex
  EXPECT_EQ(from_hex("ABCD"), (Bytes{0xAB, 0xCD}));  // uppercase ok
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(ByteSpan(a), ByteSpan(b)));
  EXPECT_FALSE(ct_equal(ByteSpan(a), ByteSpan(c)));
  EXPECT_FALSE(ct_equal(ByteSpan(a), ByteSpan(d)));
}

// ------------------------------------------------------------------ rng

TEST(Rng, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo_seen |= (v == -3);
    hi_seen |= (v == 3);
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, SampleDistinctAndExcludes) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    auto s = rng.sample(20, 5, 7);
    EXPECT_EQ(s.size(), 5u);
    std::set<std::uint32_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 5u);
    EXPECT_EQ(uniq.count(7), 0u);
    for (auto v : s) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleDenseAndClamped) {
  Rng rng(5);
  // Ask for more than available: clamped to population size.
  auto s = rng.sample(5, 10, 2);
  EXPECT_EQ(s.size(), 4u);
  std::set<std::uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq, (std::set<std::uint32_t>{0, 1, 3, 4}));
  // exclude >= n excludes nothing.
  auto all = rng.sample(4, 4, 100);
  EXPECT_EQ(all.size(), 4u);
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(123);
  std::map<std::uint32_t, int> counts;
  const int kIters = 30000;
  for (int i = 0; i < kIters; ++i) {
    for (auto v : rng.sample(10, 2, 10)) counts[v]++;
  }
  // Each of 10 ids should appear ~ kIters*2/10 times.
  for (auto& [id, c] : counts) {
    EXPECT_NEAR(c, kIters * 2 / 10, kIters * 2 / 10 * 0.1) << "id " << id;
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkDiverges) {
  Rng a(1);
  Rng b = a.fork();
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SampleIntoMatchesSampleAndConsumesIdentically) {
  // The scratch-based sampler must replay the exact same stream as
  // sample(): same picks AND same generator state afterwards (the sim
  // engine's determinism depends on it). Cover both the dense
  // (Fisher-Yates) and sparse (rejection) branches.
  struct Case {
    std::uint32_t n, k, exclude;
  } cases[] = {{120, 2, 7},   // sparse, with exclusion
               {120, 60, 120},  // dense, no exclusion
               {10, 9, 3},      // dense, nearly the whole population
               {1000, 4, 999},  // sparse, large population
               {5, 0, 0}};      // k = 0
  for (auto c : cases) {
    Rng r1(99), r2(99);
    auto expected = r1.sample(c.n, c.k, c.exclude);
    std::vector<std::uint32_t> out, scratch;
    r2.sample_into(c.n, c.k, c.exclude, out, scratch);
    EXPECT_EQ(out, expected) << c.n << "/" << c.k;
    EXPECT_EQ(r1.next(), r2.next()) << "generator state diverged";
  }
}

// ---------------------------------------------------------------- stats

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsMergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform() * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.cdf_at(50), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(1000), 1.0);
}

TEST(Stats, ConfidenceInterval) {
  Samples s;
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  s.add(1.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  for (int i = 0; i < 99; ++i) s.add(i % 2 ? 1.0 : 3.0);
  // 100 samples, stddev ~1 -> halfwidth ~0.196.
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * s.stddev() / 10.0, 1e-12);
  EXPECT_GT(s.ci95_halfwidth(), 0.1);
}

TEST(Stats, CoverageCurveAveragesAndExtends) {
  CoverageCurve c;
  c.add_run({0.1, 0.5, 1.0});
  c.add_run({0.3, 0.7});  // shorter: extends with 0.7
  auto avg = c.average();
  ASSERT_EQ(avg.size(), 3u);
  EXPECT_NEAR(avg[0], 0.2, 1e-12);
  EXPECT_NEAR(avg[1], 0.6, 1e-12);
  EXPECT_NEAR(avg[2], (1.0 + 0.7) / 2, 1e-12);
  // A longer run arriving later back-fills earlier runs with their finals.
  c.add_run({0.0, 0.0, 0.0, 0.9});
  avg = c.average();
  ASSERT_EQ(avg.size(), 4u);
  EXPECT_NEAR(avg[3], (1.0 + 0.7 + 0.9) / 3, 1e-12);
}

TEST(Stats, SamplesMergeInOrderMatchesSerialExactly) {
  // The parallel sim engine's contract: per-worker partials merged back in
  // trial order reproduce the serial accumulation bit-for-bit.
  Samples serial, a, b, c;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    double x = rng.uniform() * 100;
    serial.add(x);
    (i < 100 ? a : i < 200 ? b : c).add(x);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a, serial);  // raw vectors identical -> every stat identical
  EXPECT_EQ(a.mean(), serial.mean());
  EXPECT_EQ(a.stddev(), serial.stddev());
  EXPECT_EQ(a.percentile(0.9), serial.percentile(0.9));
}

TEST(Stats, SamplesMergeOrderIndependentStats) {
  // Out-of-order merges permute the stored samples; counts, CDFs, and
  // quantiles (which sort) are exactly permutation-invariant, mean/stddev
  // up to floating-point reassociation.
  Samples ab, ba, a, b;
  Rng rng(6);
  for (int i = 0; i < 250; ++i) (i % 3 ? a : b).add(rng.uniform() * 10 - 5);
  ab = a;
  ab.merge(b);
  ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.sorted(), ba.sorted());
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(ab.percentile(p), ba.percentile(p)) << p;
  }
  EXPECT_EQ(ab.cdf_at(0.5), ba.cdf_at(0.5));
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-12);
  EXPECT_NEAR(ab.stddev(), ba.stddev(), 1e-12);
}

TEST(Stats, SamplesMergeEmptyPartials) {
  Samples s, empty;
  s.add(1.0);
  s.add(2.0);
  Samples before = s;
  s.merge(empty);  // no-op
  EXPECT_EQ(s, before);
  empty.merge(s);  // adopt
  EXPECT_EQ(empty, s);
  Samples e1, e2;
  e1.merge(e2);
  EXPECT_EQ(e1.count(), 0u);
  EXPECT_EQ(e1.percentile(0.5), 0.0);
}

TEST(Stats, SamplesQuantileStabilityVsSinglePassReference) {
  // Quantiles of partials merged in any grouping match a single-pass
  // reference collection exactly.
  Samples single;
  std::vector<Samples> parts(7);
  Rng rng(7);
  for (int i = 0; i < 700; ++i) {
    double x = rng.uniform();
    single.add(x);
    parts[static_cast<std::size_t>(i) % 7].add(x);
  }
  // Tree-shaped merge: (((6<-5)<-(4<-3))-ish arbitrary grouping.
  parts[5].merge(parts[6]);
  parts[3].merge(parts[4]);
  parts[3].merge(parts[5]);
  parts[0].merge(parts[1]);
  parts[0].merge(parts[2]);
  parts[0].merge(parts[3]);
  EXPECT_EQ(parts[0].count(), single.count());
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(parts[0].percentile(p), single.percentile(p)) << p;
  }
}

TEST(Stats, CoverageCurveMergeInOrderMatchesSerialExactly) {
  CoverageCurve serial, a, b;
  a.add_run({0.1, 0.5, 1.0});
  a.add_run({0.3, 0.7});
  b.add_run({0.0, 0.0, 0.0, 0.9});
  b.add_run({});
  for (auto run : {std::vector<double>{0.1, 0.5, 1.0},
                   std::vector<double>{0.3, 0.7},
                   std::vector<double>{0.0, 0.0, 0.0, 0.9},
                   std::vector<double>{}}) {
    serial.add_run(run);
  }
  a.merge(b);
  EXPECT_EQ(a, serial);
  EXPECT_EQ(a.runs(), 4u);
  EXPECT_EQ(a.average(), serial.average());
}

TEST(Stats, CoverageCurveMergeOrderIndependentAverage) {
  CoverageCurve ab, ba, a, b;
  a.add_run({0.2, 0.8, 1.0});
  a.add_run({0.5});
  b.add_run({0.1, 0.4, 0.6, 0.9});
  ab = a;
  ab.merge(b);
  ba = b;
  ba.merge(a);
  auto va = ab.average(), vb = ba.average();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i], vb[i], 1e-12) << i;
  }
}

TEST(Stats, CoverageCurveMergeEmptyPartials) {
  CoverageCurve c, empty;
  c.add_run({0.5, 1.0});
  CoverageCurve before = c;
  c.merge(empty);
  EXPECT_EQ(c, before);
  empty.merge(c);
  EXPECT_EQ(empty, c);
  CoverageCurve e;
  EXPECT_TRUE(e.average().empty());
  EXPECT_EQ(e.runs(), 0u);
}

// ---------------------------------------------------------------- table

TEST(Table, PrettyAndCsv) {
  Table t({"x", "drum", "push"});
  t.add_row({1.0, 5.25, 7.5}, 2);
  t.add_row(std::vector<std::string>{"128", "5.3", "40"});
  auto csv = t.csv();
  EXPECT_EQ(csv, "x,drum,push\n1,5.25,7.5\n128,5.3,40\n");
  auto pretty = t.pretty();
  EXPECT_NE(pretty.find("drum"), std::string::npos);
  EXPECT_NE(pretty.find("5.25"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtTrimsZeros) {
  EXPECT_EQ(fmt(1.5000, 4), "1.5");
  EXPECT_EQ(fmt(2.0, 3), "2");
  EXPECT_EQ(fmt(0.125, 3), "0.125");
}

}  // namespace
}  // namespace drum::util

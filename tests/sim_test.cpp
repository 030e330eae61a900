// Tests for the Monte-Carlo simulator (paper §7): determinism, known gossip
// results (logarithmic propagation, graceful crash degradation), the paper's
// DoS findings (Drum bounded in x; Push/Pull degrade linearly; adversary
// strategies), and the §9 ablations.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "drum/sim/engine.hpp"

namespace drum::sim {
namespace {

SimParams base_params(core::Variant proto, std::size_t n = 120) {
  SimParams p;
  p.protocol = proto;
  p.n = n;
  p.fanout = 4;
  p.loss = 0.01;
  p.malicious_fraction = 0.1;
  return p;
}

double mean_rounds(const SimParams& p, std::size_t runs, std::uint64_t seed) {
  return simulate_many(p, runs, seed).rounds_to_target.mean();
}

TEST(SimEngine, DeterministicGivenSeed) {
  SimParams p = base_params(core::Variant::kDrum);
  p.alpha = 0.1;
  p.x = 64;
  util::Rng r1(77), r2(77);
  auto a = simulate_run(p, r1);
  auto b = simulate_run(p, r2);
  EXPECT_EQ(a.rounds_to_target, b.rounds_to_target);
  EXPECT_EQ(a.coverage_by_round, b.coverage_by_round);
}

TEST(SimEngine, ScratchOverloadMatchesPlainRun) {
  // simulate_run with a reusable SimScratch must consume the RNG and
  // produce results identically to the allocating overload — including
  // when the scratch is dirty from previous runs at other group sizes.
  SimParams p = base_params(core::Variant::kDrum);
  p.alpha = 0.1;
  p.x = 64;
  SimScratch scratch;
  {
    SimParams warm = base_params(core::Variant::kPull, 300);
    util::Rng wrng(5);
    (void)simulate_run(warm, wrng, scratch);  // dirty the buffers
  }
  util::Rng r1(77), r2(77);
  auto plain = simulate_run(p, r1);
  auto scratched = simulate_run(p, r2, scratch);
  EXPECT_EQ(plain.rounds_to_target, scratched.rounds_to_target);
  EXPECT_EQ(plain.rounds_to_leave_source, scratched.rounds_to_leave_source);
  EXPECT_EQ(plain.coverage_by_round, scratched.coverage_by_round);
  EXPECT_EQ(r1.next(), r2.next()) << "RNG consumption diverged";
}

TEST(SimEngine, SimulateManyBitIdenticalForEveryThreadCount) {
  // The parallel engine's hard contract (DESIGN.md §9): same seed, any
  // thread count -> byte-identical AggregateResult. Attack on so the
  // attacked/non-attacked samples populate too.
  SimParams p = base_params(core::Variant::kDrum);
  p.alpha = 0.2;
  p.x = 64;
  SimOptions t1;
  t1.threads = 1;
  auto ref = simulate_many(p, 37, 123, t1);
  for (std::size_t threads : {2u, 8u}) {
    SimOptions o;
    o.threads = threads;
    auto got = simulate_many(p, 37, 123, o);
    EXPECT_EQ(got, ref) << "threads=" << threads;
    EXPECT_EQ(got.rounds_to_target.raw(), ref.rounds_to_target.raw());
    EXPECT_EQ(got.coverage.average(), ref.coverage.average());
  }
}

TEST(SimEngine, SimulateManyDefaultMatchesExplicitSingleThread) {
  // The 3-arg overload (threads from env/hardware) must agree with an
  // explicit single-thread run — the determinism contract covers the
  // default path too.
  SimParams p = base_params(core::Variant::kPush);
  p.alpha = 0.1;
  p.x = 32;
  SimOptions t1;
  t1.threads = 1;
  EXPECT_EQ(simulate_many(p, 12, 9), simulate_many(p, 12, 9, t1));
}

TEST(SimEngine, SimulateManyRecordsPoolTelemetry) {
  SimParams p = base_params(core::Variant::kDrum);
  obs::MetricsRegistry reg;
  SimOptions o;
  o.threads = 2;
  o.metrics = &reg;
  auto agg = simulate_many(p, 10, 3, o);
  EXPECT_EQ(agg.rounds_to_target.count(), 10u);
  EXPECT_EQ(reg.counter_value("sim.trials"), 10u);
  EXPECT_GE(reg.counter_value("sim.chunks"), 1u);
  EXPECT_EQ(reg.histogram_count("sim.trial_us"), 10u);
  EXPECT_EQ(reg.gauge_value("sim.threads"), 2.0);
}

TEST(SimEngine, SimulateManyPropagatesTrialErrors) {
  SimParams p = base_params(core::Variant::kDrum, 10);
  p.malicious_fraction = 1.0;  // every trial throws
  SimOptions o;
  o.threads = 4;
  EXPECT_THROW(simulate_many(p, 8, 1, o), std::invalid_argument);
}

TEST(SimEngine, CoverageMonotoneAndStartsAtSource) {
  SimParams p = base_params(core::Variant::kPush);
  util::Rng rng(1);
  auto r = simulate_run(p, rng);
  ASSERT_FALSE(r.coverage_by_round.empty());
  EXPECT_NEAR(r.coverage_by_round[0], 1.0 / 108.0, 1e-9);  // 120 - 12 malicious
  for (std::size_t i = 1; i < r.coverage_by_round.size(); ++i) {
    EXPECT_GE(r.coverage_by_round[i], r.coverage_by_round[i - 1] - 1e-12);
  }
  EXPECT_TRUE(r.reached);
}

TEST(SimEngine, FailureFreePropagationIsFast) {
  // Fig. 2(a): a few rounds suffice; grows ~log n.
  for (auto proto : {core::Variant::kDrum, core::Variant::kPush,
                     core::Variant::kPull}) {
    SimParams p = base_params(proto);
    p.malicious_fraction = 0.0;
    double r = mean_rounds(p, 30, 42);
    EXPECT_LT(r, 10.0) << core::variant_name(proto);
    EXPECT_GE(r, 2.0) << core::variant_name(proto);
  }
}

TEST(SimEngine, LogarithmicGrowthInN) {
  SimParams small = base_params(core::Variant::kPush, 120);
  small.malicious_fraction = 0;
  SimParams big = base_params(core::Variant::kPush, 960);
  big.malicious_fraction = 0;
  double rs = mean_rounds(small, 20, 1);
  double rb = mean_rounds(big, 20, 1);
  // 8x the group size should cost ~3 extra rounds, not 8x the time.
  EXPECT_GT(rb, rs);
  EXPECT_LT(rb, rs + 5.0);
}

TEST(SimEngine, GracefulDegradationUnderCrashes) {
  // Fig. 2(b): even 40% crashed costs only a few rounds.
  SimParams p = base_params(core::Variant::kDrum);
  p.malicious_fraction = 0;
  double r0 = mean_rounds(p, 30, 3);
  p.crashed_fraction = 0.4;
  double r40 = mean_rounds(p, 30, 3);
  EXPECT_LT(r40, r0 + 4.0);
}

TEST(SimEngine, DrumBoundedInX) {
  // Fig. 3(a) / Lemma 1: alpha = 10%, increasing x barely affects Drum.
  SimParams p = base_params(core::Variant::kDrum);
  p.alpha = 0.1;
  p.x = 32;
  double r32 = mean_rounds(p, 30, 5);
  p.x = 256;
  double r256 = mean_rounds(p, 30, 5);
  EXPECT_LT(r256, r32 + 2.5);
}

TEST(SimEngine, PushDegradesLinearlyInX) {
  // Corollary 1.
  SimParams p = base_params(core::Variant::kPush);
  p.alpha = 0.1;
  p.x = 32;
  double r32 = mean_rounds(p, 30, 6);
  p.x = 128;
  double r128 = mean_rounds(p, 30, 6);
  EXPECT_GT(r128, r32 * 2.0);
}

TEST(SimEngine, PullDegradesLinearlyInX) {
  // Corollary 2.
  SimParams p = base_params(core::Variant::kPull);
  p.alpha = 0.1;
  p.max_rounds = 600;
  p.x = 32;
  double r32 = mean_rounds(p, 30, 7);
  p.x = 128;
  double r128 = mean_rounds(p, 30, 7);
  EXPECT_GT(r128, r32 * 2.0);
}

TEST(SimEngine, DrumBeatsBaselinesUnderTargetedAttack) {
  // The headline: alpha = 10%, x = 128.
  double drum, push, pull;
  {
    SimParams p = base_params(core::Variant::kDrum);
    p.alpha = 0.1;
    p.x = 128;
    drum = mean_rounds(p, 30, 8);
  }
  {
    SimParams p = base_params(core::Variant::kPush);
    p.alpha = 0.1;
    p.x = 128;
    p.max_rounds = 600;
    push = mean_rounds(p, 30, 8);
  }
  {
    SimParams p = base_params(core::Variant::kPull);
    p.alpha = 0.1;
    p.x = 128;
    p.max_rounds = 600;
    pull = mean_rounds(p, 30, 8);
  }
  EXPECT_LT(drum * 2.0, push);
  EXPECT_LT(drum * 2.0, pull);
}

TEST(SimEngine, PushFastToNonAttackedSlowToAttacked) {
  // Fig. 6: Push reaches non-attacked processes quickly but attacked ones
  // slowly; Drum is fast to both.
  SimParams p = base_params(core::Variant::kPush);
  p.alpha = 0.1;
  p.x = 128;
  p.max_rounds = 600;
  auto agg = simulate_many(p, 30, 9);
  EXPECT_LT(agg.rounds_to_target_non_attacked.mean() * 3,
            agg.rounds_to_target_attacked.mean());

  SimParams d = base_params(core::Variant::kDrum);
  d.alpha = 0.1;
  d.x = 128;
  auto dagg = simulate_many(d, 30, 9);
  EXPECT_LT(dagg.rounds_to_target_attacked.mean(),
            agg.rounds_to_target_attacked.mean() / 2);
}

TEST(SimEngine, PullStdDominatedBySourceEscape) {
  // Fig. 4 discussion: Pull's STD is large and driven by rounds-to-leave-
  // source; Drum's STD stays small.
  SimParams pull = base_params(core::Variant::kPull);
  pull.alpha = 0.1;
  pull.x = 128;
  pull.max_rounds = 600;
  auto pagg = simulate_many(pull, 40, 10);
  SimParams drum = base_params(core::Variant::kDrum);
  drum.alpha = 0.1;
  drum.x = 128;
  auto dagg = simulate_many(drum, 40, 10);
  EXPECT_GT(pagg.rounds_to_target.stddev(),
            3 * dagg.rounds_to_target.stddev());
  EXPECT_GT(pagg.rounds_to_leave_source.mean(), 3.0);
}

TEST(SimEngine, AdversaryShouldSpreadAgainstDrum) {
  // Fig. 7 / Lemma 2: with fixed budget B = 36n (c = 10 at F = 4), focusing
  // on fewer processes does NOT help against Drum...
  auto drum_rounds = [&](double alpha) {
    SimParams p = base_params(core::Variant::kDrum);
    p.alpha = alpha;
    p.x = 36.0 * static_cast<double>(p.n) / (alpha * p.n);
    return mean_rounds(p, 30, 11);
  };
  EXPECT_LT(drum_rounds(0.1), drum_rounds(0.9) + 1.0);

  // ...but concentrating is devastating for Push.
  auto push_rounds = [&](double alpha) {
    SimParams p = base_params(core::Variant::kPush);
    p.alpha = alpha;
    p.x = 36.0 * static_cast<double>(p.n) / (alpha * p.n);
    p.max_rounds = 900;
    return mean_rounds(p, 20, 11);
  };
  EXPECT_GT(push_rounds(0.1), push_rounds(0.9) * 1.5);
}

TEST(SimEngine, WeakAttacksBarelyAffectDrum) {
  // Fig. 8: B <= 3.6n has little impact on Drum for any alpha.
  SimParams p = base_params(core::Variant::kDrum);
  double baseline = mean_rounds(p, 30, 12);
  for (double alpha : {0.1, 0.5, 0.9}) {
    SimParams q = base_params(core::Variant::kDrum);
    q.alpha = alpha;
    q.x = 3.6 / alpha;  // B = 3.6n
    double r = mean_rounds(q, 30, 12);
    EXPECT_LT(r, baseline + 3.0) << "alpha=" << alpha;
  }
}

TEST(SimEngine, WellKnownPortsAblationDegrades) {
  // Fig. 12(a): without random ports, Drum degrades in x.
  SimParams p = base_params(core::Variant::kDrumWkPorts);
  p.alpha = 0.1;
  p.max_rounds = 600;
  p.x = 32;
  double r32 = mean_rounds(p, 30, 13);
  p.x = 256;
  double r256 = mean_rounds(p, 30, 13);
  EXPECT_GT(r256, r32 + 3.0);

  // Real Drum at the same attack strength stays flat and faster.
  SimParams d = base_params(core::Variant::kDrum);
  d.alpha = 0.1;
  d.x = 256;
  EXPECT_LT(mean_rounds(d, 30, 13), r256);
}

TEST(SimEngine, SharedBoundsAblationDegrades) {
  // §9: joint control-message bound lets push-channel flood starve the pull
  // channel; separate bounds stay flat.
  SimParams p = base_params(core::Variant::kDrumSharedBounds);
  p.alpha = 0.1;
  p.max_rounds = 600;
  p.x = 32;
  double r32 = mean_rounds(p, 30, 14);
  p.x = 256;
  double r256 = mean_rounds(p, 30, 14);
  SimParams d = base_params(core::Variant::kDrum);
  d.alpha = 0.1;
  d.x = 256;
  double drum256 = mean_rounds(d, 30, 14);
  EXPECT_GT(r256, drum256);
  EXPECT_GT(r256, r32);
}

TEST(SimEngine, LargerFanoutPropagatesFaster) {
  double prev = 1e9;
  for (std::size_t f : {2u, 4u, 8u}) {
    SimParams p = base_params(core::Variant::kDrum);
    p.fanout = f;
    p.malicious_fraction = 0;
    double r = mean_rounds(p, 30, 21);
    EXPECT_LT(r, prev + 0.5) << "F=" << f;
    prev = r;
  }
}

TEST(SimEngine, FanoutSplitAblationStaysBalanced) {
  // Any split with both halves nonzero keeps Drum's bounded-in-x property;
  // the even split is (weakly) best under the symmetric x/2+x/2 attack.
  for (std::size_t split : {1u, 2u, 3u}) {
    SimParams p = base_params(core::Variant::kDrum);
    p.alpha = 0.1;
    p.drum_push_view = split;
    p.x = 32;
    double r32 = mean_rounds(p, 30, 22);
    p.x = 256;
    double r256 = mean_rounds(p, 30, 22);
    EXPECT_LT(r256, r32 + 3.0) << "split=" << split;
  }
}

TEST(SimEngine, UnreachedRunsReported) {
  SimParams p = base_params(core::Variant::kPull);
  p.alpha = 0.1;
  p.x = 512;
  p.max_rounds = 3;  // far too short
  auto agg = simulate_many(p, 5, 15);
  EXPECT_EQ(agg.unreached_runs, 5u);
}

TEST(SimEngine, RejectsDegenerateConfigs) {
  SimParams p = base_params(core::Variant::kDrum, 3);
  util::Rng rng(1);
  EXPECT_THROW(simulate_run(p, rng), std::invalid_argument);
  SimParams q = base_params(core::Variant::kDrum, 10);
  q.malicious_fraction = 1.0;
  EXPECT_THROW(simulate_run(q, rng), std::invalid_argument);
}

// Property sweep: for every protocol and a grid of attacks, coverage curves
// are monotone, bounded by [0,1], and attacked runs never beat the
// attack-free baseline by more than noise.
//
// gtest names each case by dumping its bytes, so `reserved` fills what would
// otherwise be padding: padding would put uninitialised stack bytes into the
// test names and change them from one run to the next.
struct SweepCase {
  SweepCase(core::Variant proto_, double alpha_, double x_)
      : proto(proto_), alpha(alpha_), x(x_) {}
  core::Variant proto;
  std::uint32_t reserved = 0;
  double alpha;
  double x;
};
static_assert(sizeof(SweepCase) == sizeof(core::Variant) +
                                       sizeof(std::uint32_t) +
                                       2 * sizeof(double),
              "SweepCase must have no padding bytes");

class SimSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SimSweep, CoverageCurvesWellFormed) {
  auto c = GetParam();
  SimParams p = base_params(c.proto);
  p.alpha = c.alpha;
  p.x = c.x;
  p.max_rounds = 400;
  util::Rng rng(99);
  auto r = simulate_run(p, rng);
  for (std::size_t i = 0; i < r.coverage_by_round.size(); ++i) {
    ASSERT_GE(r.coverage_by_round[i], 0.0);
    ASSERT_LE(r.coverage_by_round[i], 1.0);
    if (i) {
      ASSERT_GE(r.coverage_by_round[i], r.coverage_by_round[i - 1] - 1e-12);
    }
  }
  EXPECT_GE(r.rounds_to_leave_source, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSweep,
    ::testing::Values(
        SweepCase{core::Variant::kDrum, 0.0, 0.0},
        SweepCase{core::Variant::kDrum, 0.1, 64},
        SweepCase{core::Variant::kDrum, 0.5, 64},
        SweepCase{core::Variant::kDrum, 0.9, 8},
        SweepCase{core::Variant::kPush, 0.1, 64},
        SweepCase{core::Variant::kPush, 0.5, 16},
        SweepCase{core::Variant::kPull, 0.1, 64},
        SweepCase{core::Variant::kPull, 0.9, 8},
        SweepCase{core::Variant::kDrumWkPorts, 0.1, 64},
        SweepCase{core::Variant::kDrumSharedBounds, 0.1, 64}));

}  // namespace
}  // namespace drum::sim

namespace drum::sim {
namespace {

TEST(SimEngine, AttackerCannotWinByRebalancingItsSplit) {
  // Against Drum, shifting the attack budget between the push and pull
  // channels never helps much: the protocol's un-attacked half carries M.
  double worst = 0, best = 1e9;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    SimParams p = base_params(core::Variant::kDrum);
    p.alpha = 0.1;
    p.x = 256;
    p.attack_push_fraction = frac;
    double r = mean_rounds(p, 30, 23);
    worst = std::max(worst, r);
    best = std::min(best, r);
  }
  // The spread across attacker strategies stays small (a couple of rounds),
  // nothing like Push/Pull's linear-in-x collapse.
  EXPECT_LT(worst, best + 3.0);
  EXPECT_LT(worst, 12.0);
}

}  // namespace
}  // namespace drum::sim

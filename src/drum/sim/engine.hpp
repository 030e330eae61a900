// Round-synchronized Monte-Carlo simulator of gossip multicast under DoS
// attack — the model of the paper's §5 and §7 (originally MATLAB):
//
//  * synchronized rounds; fan-out F; per-round acceptance bound F
//    (Drum splits both F/2 push + F/2 pull);
//  * one tracked message M originating at a single source; every process
//    gossips every round regardless of holding M (they have other traffic),
//    so contention at the acceptance bounds is always present;
//  * push modelled without push-offers, pull-replies always accepted
//    (random ports), both as in the paper's simulation section;
//  * iid link loss on every traversal (requests, replies, data, and the
//    attacker's fabricated messages alike);
//  * a fraction of group members is malicious: they emit the fabricated
//    traffic, never forward valid messages, but remain legitimate gossip
//    targets (wasted fan-out), exactly as in §7;
//  * the attacked set is a fraction alpha of the group (all correct), and
//    the source is attacked.
//
// Two ablation variants of §9 are also modelled:
//  * kDrumWkPorts — pull-replies go to a well-known (attackable) port; the
//    adversary splits the pull budget between the request and reply ports;
//  * kDrumSharedBounds — one joint acceptance bound over push + pull-request
//    arrivals instead of separate per-operation bounds.
//
// Execution model (DESIGN.md §9): simulate_many pre-forks one Rng per trial
// from the master seed (in trial order), runs trials on a small worker pool
// (SimOptions::threads / DRUM_SIM_THREADS), and merges per-worker partial
// aggregates back in trial order — the AggregateResult is bit-identical for
// every thread count, including 1. simulate_run itself is allocation-lean:
// all per-round buffers live in a reusable SimScratch.
#pragma once

#include <cstdint>
#include <vector>

#include "drum/adversary/adversary.hpp"
#include "drum/core/config.hpp"
#include "drum/core/scoring.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/stats.hpp"

namespace drum::sim {

struct SimParams {
  core::Variant protocol = core::Variant::kDrum;
  std::size_t n = 120;              ///< group size
  std::size_t fanout = 4;           ///< F
  double loss = 0.01;               ///< per-link loss probability
  double malicious_fraction = 0.1;  ///< adversary-controlled group members
  double crashed_fraction = 0.0;    ///< crashed-before-M members (Fig. 2(b))
  double alpha = 0.0;               ///< attacked fraction of the group
  double x = 0.0;                   ///< fabricated msgs/round per attacked proc
  std::size_t max_rounds = 300;     ///< simulation horizon
  double coverage_target = 0.99;    ///< "propagation time" threshold
  /// Ablation of Drum's even fan-out split: for the kDrum protocol, use
  /// this push-view size (pull view = fanout - this). 0 = even split F/2.
  /// The attacker still splits its budget x/2 push + x/2 pull (it cannot
  /// observe the victim's split).
  std::size_t drum_push_view = 0;
  /// Ablation of the ATTACKER's budget split against kDrum: fraction of x
  /// aimed at the push (offer) channel, remainder at the pull-request
  /// channel. Default 0.5 (the paper's attack). Drum's point is that no
  /// split helps: whichever channel the attacker abandons carries the data.
  double attack_push_fraction = 0.5;
  /// Adversary-zoo strategy (drum::adversary). When enabled, it REPLACES
  /// the legacy x-flooder above: all fabricated/insider traffic and view
  /// poisoning come from the strategy's per-round Plan, with the malicious
  /// members acting as its colluding insiders and the alpha-set as its
  /// designated victims. Not supported for kDrumSharedBounds.
  adversary::Spec attack;
  /// Peer-scoring + greylist defense layer (core::PeerScoreTable), run by
  /// every correct process. Independent of `attack` — an all-correct run
  /// with scoring on is the false-positive gate. When enabled, correct
  /// processes also acknowledge every accepted pull request (the empty
  /// pull-reply protocol extension), so futility only accrues at black
  /// holes and saturated victims. Not supported for kDrumSharedBounds.
  core::ScoringConfig scoring;
};

/// Outcome of a single simulated run.
struct RunResult {
  /// Rounds until `coverage_target` of all correct processes hold M
  /// (max_rounds + 1 when not reached within the horizon).
  std::size_t rounds_to_target = 0;
  /// Same threshold restricted to the attacked / non-attacked correct
  /// subsets (paper Fig. 6). Zero-size subsets report 0.
  std::size_t rounds_to_target_attacked = 0;
  std::size_t rounds_to_target_non_attacked = 0;
  /// First round at the start of which some process other than the source
  /// holds M (Pull's dominant latency term, §7.2).
  std::size_t rounds_to_leave_source = 0;
  /// coverage_by_round[r] = fraction of correct processes holding M at the
  /// beginning of round r.
  std::vector<double> coverage_by_round;
  bool reached = false;
  /// Scoring-layer outcomes (zero when scoring is disabled): total
  /// greylist-entry events across all correct processes, and how many
  /// (process, peer) pairs were greylisted when the run ended.
  std::uint64_t greylist_entries = 0;
  std::uint64_t greylisted_at_end = 0;
};

/// Reusable per-worker scratch space for simulate_run: the per-round arrival
/// buffers, holder bitmaps, and sampling vectors live here and keep their
/// capacity across runs, so the inner simulation loop performs no heap
/// allocation after the first round at a given group size. One SimScratch
/// belongs to one thread at a time; the parallel engine keeps one per
/// worker.
class SimScratch {
 public:
  SimScratch() = default;

 private:
  friend RunResult simulate_run(const SimParams& params, util::Rng& rng,
                                SimScratch& scratch);

  struct PushArrival {
    std::uint32_t sender;
    char carries_m;
  };

  struct SentPull {
    std::uint32_t target;
    char answered;
  };

  std::vector<char> has_m_, new_m_;
  std::vector<std::vector<PushArrival>> push_arrivals_;
  std::vector<std::vector<std::uint32_t>> pull_requests_;
  std::vector<std::vector<char>> reply_arrivals_;
  std::vector<std::size_t> fab_;      // kDrumSharedBounds only
  std::vector<double> ratio_;         // kDrumSharedBounds only
  std::vector<std::uint32_t> view_;       // gossip-target sample
  std::vector<std::uint32_t> accepted_;   // accept_bounded output
  std::vector<std::uint32_t> picks_;      // accept_bounded sample
  std::vector<std::uint32_t> sample_scratch_;  // Rng::sample_into dense pool

  // Adversary-zoo / scoring state; touched only when the respective
  // feature is enabled in SimParams.
  std::vector<core::PeerScoreTable> tables_;     // one per correct process
  std::vector<std::uint32_t> attacked_ids_, colluder_ids_;
  std::vector<float> usefulness_, served_;       // adaptive-attack signal
  std::vector<std::uint32_t> fab_push_, fab_pull_, fab_reply_;
  std::vector<std::vector<SentPull>> sent_pulls_;  // futility bookkeeping
  adversary::Plan plan_;
};

/// Simulates one run. `rng` supplies all randomness (deterministic replay).
RunResult simulate_run(const SimParams& params, util::Rng& rng);

/// As above, but reusing `scratch` buffers across calls (the hot path of
/// simulate_many). Identical RNG consumption and results as the two-argument
/// overload.
RunResult simulate_run(const SimParams& params, util::Rng& rng,
                       SimScratch& scratch);

/// Aggregate of `runs` independent runs.
struct AggregateResult {
  util::Samples rounds_to_target;
  util::Samples rounds_to_target_attacked;
  util::Samples rounds_to_target_non_attacked;
  util::Samples rounds_to_leave_source;
  /// Greylist-entry events per run (all zero when scoring is disabled).
  util::Samples greylist_entries;
  util::CoverageCurve coverage;
  std::size_t unreached_runs = 0;

  /// Appends another aggregate's trials after this one's. Merging
  /// per-worker partials in trial order reproduces the serial accumulation
  /// bit-for-bit (see util::Samples / util::CoverageCurve).
  void merge(const AggregateResult& other);

  bool operator==(const AggregateResult&) const = default;
};

/// Execution options for simulate_many. These control HOW trials execute,
/// never WHAT they compute: the aggregate is bit-identical for every thread
/// count (each trial's Rng is pre-forked from the master seed in trial
/// order, and partials merge back in trial order).
struct SimOptions {
  /// Worker threads. 0 = the DRUM_SIM_THREADS environment variable if set,
  /// else std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Optional pool telemetry sink: sim.trials / sim.chunks counters,
  /// sim.threads gauge, sim.trial_us / sim.queue_depth histograms.
  obs::MetricsRegistry* metrics = nullptr;
};

AggregateResult simulate_many(const SimParams& params, std::size_t runs,
                              std::uint64_t seed);
AggregateResult simulate_many(const SimParams& params, std::size_t runs,
                              std::uint64_t seed, const SimOptions& options);

}  // namespace drum::sim

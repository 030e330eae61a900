#include "drum/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "drum/check/annotations.hpp"

namespace drum::sim {

namespace {

// Number of fabricated messages that arrive (each independently survives
// link loss).
std::size_t fabricated_arrivals(double x, double loss, util::Rng& rng) {
  auto sent = static_cast<std::size_t>(std::llround(x));
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < sent; ++i) {
    if (!rng.chance(loss)) ++arrived;  // drum-lint: legacy-stream
  }
  return arrived;
}

// Bounded random acceptance: `valid` items compete with `fabricated` items
// for `bound` acceptance slots; fills `out` with the indices (into the valid
// list) that were accepted. `picks`/`sample_scratch` are reusable buffers.
void accept_bounded(std::size_t valid, std::size_t fabricated,
                    std::size_t bound, util::Rng& rng,
                    std::vector<std::uint32_t>& out,
                    std::vector<std::uint32_t>& picks,
                    std::vector<std::uint32_t>& sample_scratch) {
  out.clear();
  std::size_t total = valid + fabricated;
  if (total == 0 || valid == 0) return;
  if (total <= bound) {
    for (std::size_t i = 0; i < valid; ++i) {
      out.push_back(static_cast<std::uint32_t>(i));
    }
    return;
  }
  rng.sample_into(static_cast<std::uint32_t>(total),  // drum-lint: legacy-stream
                  static_cast<std::uint32_t>(bound),
                  static_cast<std::uint32_t>(total), picks, sample_scratch);
  for (auto p : picks) {
    if (p < valid) out.push_back(p);
  }
}

struct ChannelPlan {
  std::size_t view_push = 0, bound_push = 0;
  std::size_t view_pull = 0, bound_pull = 0;
  double x_push = 0, x_pull_req = 0, x_pull_reply = 0;
  bool bounded_pull_replies = false;  // kDrumWkPorts
  bool shared_bound = false;          // kDrumSharedBounds
};

ChannelPlan make_plan(const SimParams& p) {
  ChannelPlan c;
  const std::size_t f = p.fanout;
  const std::size_t push_view =
      p.drum_push_view > 0 ? std::min(p.drum_push_view, f - 1) : f / 2;
  switch (p.protocol) {
    case core::Variant::kPush:
      c.view_push = c.bound_push = f;
      c.x_push = p.x;
      break;
    case core::Variant::kPull:
      c.view_pull = c.bound_pull = f;
      c.x_pull_req = p.x;
      break;
    case core::Variant::kDrum:
      c.view_push = c.bound_push = push_view;
      c.view_pull = c.bound_pull = f - push_view;
      c.x_push = p.x * p.attack_push_fraction;
      c.x_pull_req = p.x * (1.0 - p.attack_push_fraction);
      break;
    case core::Variant::kDrumWkPorts:
      // §9: the adversary splits the pull budget between the (well-known)
      // request port and the now-attackable well-known reply port.
      c.view_push = c.bound_push = f / 2;
      c.view_pull = c.bound_pull = f / 2;
      c.x_push = p.x / 2;
      c.x_pull_req = p.x / 4;
      c.x_pull_reply = p.x / 4;
      c.bounded_pull_replies = true;
      break;
    case core::Variant::kDrumSharedBounds:
      c.view_push = f / 2;
      c.view_pull = f / 2;
      c.bound_push = c.bound_pull = f;  // one joint bound of F
      c.x_push = p.x / 2;
      c.x_pull_req = p.x / 2;
      c.shared_bound = true;
      break;
  }
  return c;
}

}  // namespace

RunResult simulate_run(const SimParams& params, util::Rng& rng) {
  SimScratch scratch;
  return simulate_run(params, rng, scratch);  // drum-lint: legacy-stream
}

RunResult simulate_run(const SimParams& params, util::Rng& rng,
                       SimScratch& sc) {
  const std::size_t n = params.n;
  if (n < 4) throw std::invalid_argument("group too small");
  const auto n_mal = static_cast<std::size_t>(
      std::llround(params.malicious_fraction * static_cast<double>(n)));
  const auto n_crash = static_cast<std::size_t>(
      std::llround(params.crashed_fraction * static_cast<double>(n)));
  if (n_mal + n_crash >= n) throw std::invalid_argument("no correct processes");
  const std::size_t n_correct = n - n_mal - n_crash;

  // Roles: [0, n_mal) malicious, [n_mal, n_mal + n_crash) crashed,
  // the rest alive & correct.
  auto is_malicious = [&](std::size_t id) { return id < n_mal; };
  auto is_crashed = [&](std::size_t id) {
    return id >= n_mal && id < n_mal + n_crash;
  };
  auto is_correct = [&](std::size_t id) { return id >= n_mal + n_crash; };

  // Attacked set: round(alpha*n) correct processes starting at the first
  // correct id; the source is the first correct process, hence attacked
  // whenever the attack is active (paper §5).
  // Adversary zoo + scoring layer. Both are strictly additive: with both
  // disabled, the run consumes the rng stream exactly as before (the
  // bit-identity contract of DESIGN.md §9 covers legacy parameters only).
  const bool zoo = params.attack.enabled();
  const bool scoring = params.scoring.enabled;

  auto n_attacked = static_cast<std::size_t>(
      std::llround(params.alpha * static_cast<double>(n)));
  n_attacked = std::min(n_attacked, n_correct);
  const bool attack_on = zoo ? n_attacked > 0 : (params.x > 0 && n_attacked > 0);
  if (!attack_on) n_attacked = 0;
  const std::size_t first_correct = n_mal + n_crash;
  auto is_attacked = [&](std::size_t id) {
    return attack_on && is_correct(id) && id < first_correct + n_attacked;
  };
  const std::size_t source = first_correct;

  const ChannelPlan plan = make_plan(params);
  if ((zoo || scoring) && plan.shared_bound) {
    throw std::invalid_argument(
        "adversary zoo / scoring are not modelled for kDrumSharedBounds");
  }

  std::unique_ptr<adversary::Adversary> adv;
  util::Rng adv_rng(0);
  if (zoo) {
    adv = adversary::make(params.attack.strategy, params.attack.params);
    adv_rng = rng.fork();
    sc.attacked_ids_.clear();
    for (std::size_t i = 0; i < n_attacked; ++i) {
      sc.attacked_ids_.push_back(static_cast<std::uint32_t>(first_correct + i));
    }
    sc.colluder_ids_.clear();
    for (std::size_t i = 0; i < n_mal; ++i) {
      sc.colluder_ids_.push_back(static_cast<std::uint32_t>(i));
    }
    sc.usefulness_.assign(n, 0.0F);
    sc.served_.assign(n, 0.0F);
  }
  auto& tables = sc.tables_;
  if (scoring) {
    tables.resize(n);
    for (std::size_t id = first_correct; id < n; ++id) {
      tables[id].reset(n, params.scoring, static_cast<std::uint32_t>(id));
    }
    sc.sent_pulls_.resize(n);
  }

  std::vector<char>& has_m = sc.has_m_;
  has_m.assign(n, 0);
  has_m[source] = 1;

  RunResult result;
  result.rounds_to_target = params.max_rounds + 1;
  result.rounds_to_target_attacked = params.max_rounds + 1;
  result.rounds_to_target_non_attacked = params.max_rounds + 1;
  result.rounds_to_leave_source = params.max_rounds + 1;

  // Per-target arrival buffers, reused across rounds AND across runs: the
  // inner vectors keep their capacity, so after warm-up a round allocates
  // nothing.
  auto& push_arrivals = sc.push_arrivals_;
  auto& pull_requests = sc.pull_requests_;  // requester ids
  auto& reply_arrivals = sc.reply_arrivals_;  // reply-carries-M
  push_arrivals.resize(n);
  pull_requests.resize(n);
  reply_arrivals.resize(n);

  const std::size_t target_all = static_cast<std::size_t>(
      std::ceil(params.coverage_target * static_cast<double>(n_correct)));
  const std::size_t target_att = static_cast<std::size_t>(
      std::ceil(params.coverage_target * static_cast<double>(n_attacked)));
  const std::size_t n_non_att = n_correct - n_attacked;
  const std::size_t target_non = static_cast<std::size_t>(
      std::ceil(params.coverage_target * static_cast<double>(n_non_att)));

  for (std::size_t round = 0; round <= params.max_rounds; ++round) {
    // --- metrics at the beginning of the round ---
    std::size_t holders = 0, holders_att = 0;
    for (std::size_t id = first_correct; id < n; ++id) {
      if (has_m[id]) {
        ++holders;
        if (is_attacked(id)) ++holders_att;
      }
    }
    std::size_t holders_non = holders - holders_att;
    result.coverage_by_round.push_back(static_cast<double>(holders) /
                                       static_cast<double>(n_correct));
    if (holders > 1 && result.rounds_to_leave_source > round) {
      result.rounds_to_leave_source = round;
    }
    if (holders >= target_all && result.rounds_to_target > round) {
      result.rounds_to_target = round;
      result.reached = true;
    }
    if (n_attacked > 0 && holders_att >= target_att &&
        result.rounds_to_target_attacked > round) {
      result.rounds_to_target_attacked = round;
    }
    if (n_non_att > 0 && holders_non >= target_non &&
        result.rounds_to_target_non_attacked > round) {
      result.rounds_to_target_non_attacked = round;
    }
    if (result.reached &&
        (n_attacked == 0 || result.rounds_to_target_attacked <= round) &&
        (n_non_att == 0 || result.rounds_to_target_non_attacked <= round)) {
      break;
    }
    if (round == params.max_rounds) break;

    for (auto& v : push_arrivals) v.clear();
    for (auto& v : pull_requests) v.clear();
    for (auto& v : reply_arrivals) v.clear();

    // --- adversary planning + scoring round clock ---
    if (scoring) {
      for (std::size_t id = first_correct; id < n; ++id) {
        tables[id].begin_round(round);
        sc.sent_pulls_[id].clear();
      }
    }
    double view_capture = 0.0;
    if (zoo) {
      sc.served_.assign(n, 0.0F);
      sc.fab_push_.assign(n, 0);
      sc.fab_pull_.assign(n, 0);
      sc.fab_reply_.assign(n, 0);
      sc.plan_.clear();
      adversary::RoundView view;
      view.round = round;
      view.n = n;
      view.attacked = sc.attacked_ids_;
      view.colluders = sc.colluder_ids_;
      view.offer_budget = plan.bound_push;
      view.pull_request_budget = plan.bound_pull;
      view.push_channel = plan.view_push > 0;
      view.pull_channel = plan.view_pull > 0;
      view.reply_port_attackable = plan.bounded_pull_replies;
      view.usefulness = sc.usefulness_;
      adv->plan_round(view, adv_rng, sc.plan_);
      view_capture = sc.plan_.view_capture;

      for (const adversary::Flood& f : sc.plan_.floods) {
        if (f.target >= n || !is_correct(f.target)) continue;
        if (f.claimed_sender == adversary::kSpoofed) {
          // Off-path spoofed traffic: consumes budget, fails the port-box,
          // unattributable. Each message independently survives link loss.
          const std::size_t arrived = fabricated_arrivals(
              static_cast<double>(f.count), params.loss, adv_rng);
          switch (f.channel) {
            case adversary::Channel::kOffer:
              sc.fab_push_[f.target] += arrived;
              break;
            case adversary::Channel::kPullRequest:
              sc.fab_pull_[f.target] += arrived;
              break;
            case adversary::Channel::kPullReply:
              sc.fab_reply_[f.target] += arrived;
              break;
          }
        } else if (f.claimed_sender < n) {
          // Insider traffic: authenticates, competes like honest arrivals,
          // and is attributable — the greylist drops it before the bound.
          for (std::uint32_t i = 0; i < f.count; ++i) {
            if (adv_rng.chance(params.loss)) continue;
            if (scoring && tables[f.target].greylisted(f.claimed_sender)) {
              continue;  // dropped pre-budget
            }
            switch (f.channel) {
              case adversary::Channel::kOffer:
                push_arrivals[f.target].push_back({f.claimed_sender, 0});
                break;
              case adversary::Channel::kPullRequest:
                pull_requests[f.target].push_back(f.claimed_sender);
                break;
              case adversary::Channel::kPullReply:
                sc.fab_reply_[f.target] += 1;
                break;
            }
            if (scoring && f.channel != adversary::Channel::kPullReply) {
              tables[f.target].on_control_arrival(f.claimed_sender);
            }
          }
        }
      }
    }

    // When a correct process finds a greylisted peer in its sampled view,
    // it re-draws the slot (exclusion from view selection). Bounded
    // retries; a failed re-draw wastes the slot.
    auto fix_target = [&](std::uint32_t t, std::size_t p) -> std::uint32_t {
      if (!scoring) return t;
      for (int tries = 0;
           tries < 4 && tables[p].greylisted(t); ++tries) {
        t = static_cast<std::uint32_t>(rng.below(n));
      }
      return t;
    };
    // Eclipse view poisoning: a captured slot of an attacked process points
    // at a colluder instead — unless the process has that colluder
    // greylisted, in which case the poisoned entry is rejected.
    auto capture_target = [&](std::uint32_t t, std::size_t p) -> std::uint32_t {
      if (view_capture <= 0.0 || n_mal == 0 || !is_attacked(p)) return t;
      if (!adv_rng.chance(view_capture)) return t;
      const std::uint32_t c =
          sc.colluder_ids_[adv_rng.below(sc.colluder_ids_.size())];
      if (scoring && tables[p].greylisted(c)) return t;
      return c;
    };

    // --- send phase (synchronized: everyone uses the snapshot `has_m`) ---
    for (std::size_t p = first_correct; p < n; ++p) {
      if (plan.view_push > 0) {
        if (zoo && has_m[p]) {
          // Observable data volume from p this round (adaptive's signal).
          sc.served_[p] += static_cast<float>(plan.view_push);
        }
        rng.sample_into(static_cast<std::uint32_t>(n),  // drum-lint: legacy-stream
                        static_cast<std::uint32_t>(plan.view_push),
                        static_cast<std::uint32_t>(p), sc.view_,
                        sc.sample_scratch_);
        for (auto t : sc.view_) {
          if (zoo) t = capture_target(t, p);
          t = fix_target(t, p);
          if (t == p) continue;  // failed greylist re-draw hit self
          if (is_malicious(t) || is_crashed(t)) continue;  // wasted fan-out
          if (rng.chance(params.loss)) continue;  // drum-lint: legacy-stream
          if (scoring && tables[t].greylisted(
                             static_cast<std::uint32_t>(p))) {
            continue;  // receiver drops greylisted peers pre-budget
          }
          push_arrivals[t].push_back(
              {static_cast<std::uint32_t>(p), has_m[p]});
          if (scoring) {
            tables[t].on_control_arrival(static_cast<std::uint32_t>(p));
          }
        }
      }
      if (plan.view_pull > 0) {
        rng.sample_into(static_cast<std::uint32_t>(n),  // drum-lint: legacy-stream
                        static_cast<std::uint32_t>(plan.view_pull),
                        static_cast<std::uint32_t>(p), sc.view_,
                        sc.sample_scratch_);
        for (auto t : sc.view_) {
          if (zoo) t = capture_target(t, p);
          t = fix_target(t, p);
          if (t == p) continue;
          std::size_t sent_idx = 0;
          if (scoring) {
            // Track the request for the futility signal. A correct
            // receiver acks every valid request that reaches it (the
            // empty pull-reply extension — bound overflow is normal
            // operation, never misbehavior), so `answered` is decided
            // here: the request arrives AND the ack survives the return
            // path. Only black holes — malicious or crashed peers — and
            // link loss leave a pull unanswered.
            sent_idx = sc.sent_pulls_[p].size();
            sc.sent_pulls_[p].push_back({t, 0});
          }
          if (is_malicious(t) || is_crashed(t)) continue;
          if (rng.chance(params.loss)) continue;  // drum-lint: legacy-stream
          if (scoring && tables[t].greylisted(
                             static_cast<std::uint32_t>(p))) {
            continue;
          }
          pull_requests[t].push_back(static_cast<std::uint32_t>(p));
          if (scoring) {
            tables[t].on_control_arrival(static_cast<std::uint32_t>(p));
            if (!rng.chance(params.loss)) {
              sc.sent_pulls_[p][sent_idx].answered = 1;
            }
          }
        }
      }
    }

    // --- receive phase ---
    std::vector<char>& new_m = sc.new_m_;
    new_m.assign(has_m.begin(), has_m.end());

    if (plan.shared_bound) {
      // §9 ablation: one joint bound covers ALL control messages —
      // pull-requests, push-offers, and push-replies (paper §9). Because
      // push-replies now compete in the flooded pool instead of having
      // their own (unattackable, random-port) budget, an attacked process
      // also loses the ability to COMPLETE ITS OWN outgoing pushes: each
      // outgoing push needs its push-reply to survive the sender's joint
      // bound. We model that as thinning each push delivery by the
      // sender's control-acceptance ratio this round.
      auto& fab = sc.fab_;
      auto& ratio = sc.ratio_;
      fab.assign(n, 0);
      ratio.assign(n, 1.0);
      for (std::size_t t = first_correct; t < n; ++t) {
        if (is_attacked(t)) {
          fab[t] = fabricated_arrivals(plan.x_push, params.loss, rng) +  // drum-lint: legacy-stream
                   fabricated_arrivals(plan.x_pull_req, params.loss, rng);  // drum-lint: legacy-stream
        }
        std::size_t total =
            push_arrivals[t].size() + pull_requests[t].size() + fab[t];
        ratio[t] = total <= plan.bound_push
                       ? 1.0
                       : static_cast<double>(plan.bound_push) /
                             static_cast<double>(total);
      }
      for (std::size_t t = first_correct; t < n; ++t) {
        std::size_t v_push = push_arrivals[t].size();
        std::size_t v_pull = pull_requests[t].size();
        accept_bounded(v_push + v_pull, fab[t], plan.bound_push, rng,  // drum-lint: legacy-stream
                       sc.accepted_, sc.picks_, sc.sample_scratch_);
        for (auto idx : sc.accepted_) {
          if (idx < v_push) {
            const auto& arr = push_arrivals[t][idx];
            // Push-reply must survive the sender's joint bound too.
            if (arr.carries_m && rng.chance(ratio[arr.sender])) new_m[t] = 1;  // drum-lint: legacy-stream
          } else {
            auto requester = pull_requests[t][idx - v_push];
            if (has_m[t] && !rng.chance(params.loss)) {  // drum-lint: legacy-stream
              reply_arrivals[requester].push_back(1);
            }
          }
        }
      }
    } else {
      for (std::size_t t = first_correct; t < n; ++t) {
        const bool att = is_attacked(t);
        if (plan.view_push > 0) {
          std::size_t fab =
              zoo ? sc.fab_push_[t]
                  : (att ? fabricated_arrivals(plan.x_push, params.loss, rng)  // drum-lint: legacy-stream
                         : 0);
          accept_bounded(push_arrivals[t].size(), fab, plan.bound_push, rng,  // drum-lint: legacy-stream
                         sc.accepted_, sc.picks_, sc.sample_scratch_);
          for (auto idx : sc.accepted_) {
            if (push_arrivals[t][idx].carries_m) new_m[t] = 1;
          }
        }
        if (plan.view_pull > 0) {
          std::size_t fab =
              zoo ? sc.fab_pull_[t]
                  : (att ? fabricated_arrivals(plan.x_pull_req, params.loss,
                                               rng)  // drum-lint: legacy-stream
                         : 0);
          accept_bounded(pull_requests[t].size(), fab, plan.bound_pull, rng,  // drum-lint: legacy-stream
                         sc.accepted_, sc.picks_, sc.sample_scratch_);
          for (auto idx : sc.accepted_) {
            auto requester = pull_requests[t][idx];
            if (has_m[t] && !rng.chance(params.loss)) {  // drum-lint: legacy-stream
              reply_arrivals[requester].push_back(1);
              if (zoo) sc.served_[t] += 1.0F;
            }
          }
        }
      }
    }

    // --- pull-reply delivery ---
    for (std::size_t t = first_correct; t < n; ++t) {
      auto& replies = reply_arrivals[t];
      if (replies.empty()) continue;
      if (plan.bounded_pull_replies) {
        // §9 ablation: replies land on a well-known, attacked, bounded port.
        std::size_t fab = zoo ? sc.fab_reply_[t]
                          : is_attacked(t)
                              ? fabricated_arrivals(plan.x_pull_reply,
                                                    params.loss, rng)  // drum-lint: legacy-stream
                              : 0;
        accept_bounded(replies.size(), fab, plan.bound_pull, rng,  // drum-lint: legacy-stream
                       sc.accepted_, sc.picks_, sc.sample_scratch_);
        for (auto idx : sc.accepted_) {
          if (replies[idx]) new_m[t] = 1;
        }
      } else {
        for (auto carries_m : replies) {
          if (carries_m) new_m[t] = 1;
        }
      }
    }

    // --- round-end scoring bookkeeping ---
    if (scoring) {
      for (std::size_t p = first_correct; p < n; ++p) {
        for (const auto& sent : sc.sent_pulls_[p]) {
          tables[p].on_pull_outcome(sent.target, sent.answered != 0);
        }
      }
    }
    if (zoo) {
      sc.usefulness_.swap(sc.served_);
    }

    has_m.swap(new_m);
  }

  if (scoring) {
    for (std::size_t id = first_correct; id < n; ++id) {
      result.greylist_entries += tables[id].greylist_entries();
      result.greylisted_at_end += tables[id].currently_greylisted();
    }
  }
  return result;
}

void AggregateResult::merge(const AggregateResult& other) {
  rounds_to_target.merge(other.rounds_to_target);
  rounds_to_target_attacked.merge(other.rounds_to_target_attacked);
  rounds_to_target_non_attacked.merge(other.rounds_to_target_non_attacked);
  rounds_to_leave_source.merge(other.rounds_to_leave_source);
  greylist_entries.merge(other.greylist_entries);
  coverage.merge(other.coverage);
  unreached_runs += other.unreached_runs;
}

namespace {

// Folds one trial's outcome into an aggregate — the same accumulation the
// old serial loop performed, applied per chunk by the workers.
void accumulate(AggregateResult& agg, const SimParams& params,
                const RunResult& res) {
  agg.rounds_to_target.add(static_cast<double>(res.rounds_to_target));
  if (params.alpha > 0 && (params.x > 0 || params.attack.enabled())) {
    agg.rounds_to_target_attacked.add(
        static_cast<double>(res.rounds_to_target_attacked));
    agg.rounds_to_target_non_attacked.add(
        static_cast<double>(res.rounds_to_target_non_attacked));
  }
  agg.rounds_to_leave_source.add(
      static_cast<double>(res.rounds_to_leave_source));
  if (params.scoring.enabled) {
    agg.greylist_entries.add(static_cast<double>(res.greylist_entries));
  }
  agg.coverage.add_run(res.coverage_by_round);
  if (!res.reached) ++agg.unreached_runs;
}

std::size_t resolve_threads(std::size_t requested, std::size_t runs) {
  std::size_t t = requested;
  if (t == 0) {
    if (const char* env = std::getenv("DRUM_SIM_THREADS");
        env != nullptr && *env != '\0') {
      t = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  if (t == 0) t = std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  return std::clamp<std::size_t>(t, 1, std::max<std::size_t>(runs, 1));
}

}  // namespace

AggregateResult simulate_many(const SimParams& params, std::size_t runs,
                              std::uint64_t seed) {
  return simulate_many(params, runs, seed, SimOptions{});
}

AggregateResult simulate_many(const SimParams& params, std::size_t runs,
                              std::uint64_t seed, const SimOptions& options) {
  const std::size_t threads = resolve_threads(options.threads, runs);

  // Pre-fork one Rng per trial from the master seed, in trial order — the
  // exact fork sequence the serial loop used — so every trial's randomness
  // is fixed before scheduling begins.
  std::vector<util::Rng> rngs;
  rngs.reserve(runs);
  util::Rng master(seed);
  for (std::size_t r = 0; r < runs; ++r) rngs.push_back(master.fork());  // drum-lint: legacy-stream

  // Trials execute in chunks pulled from a shared counter (cheap dynamic
  // load balancing); each chunk accumulates into its own partial, and
  // partials merge back in chunk order == trial order, which makes the
  // aggregate independent of both the thread count and the schedule.
  const std::size_t chunk = std::max<std::size_t>(1, runs / (threads * 4));
  const std::size_t n_chunks = runs == 0 ? 0 : (runs + chunk - 1) / chunk;
  std::vector<AggregateResult> partials(n_chunks);

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  // Function-local: guards `error` below.
  check::Mutex err_mu;  // drum-lint: allow(mutex-annotation)
  std::exception_ptr error;  // first failure wins; written under err_mu
  std::vector<obs::MetricsRegistry> worker_metrics(
      options.metrics != nullptr ? threads : 0);

  auto worker = [&](std::size_t w) {
    SimScratch scratch;
    obs::MetricsRegistry* reg =
        options.metrics != nullptr ? &worker_metrics[w] : nullptr;
    obs::Counter* trials_c = reg ? &reg->counter("sim.trials") : nullptr;
    obs::Counter* chunks_c = reg ? &reg->counter("sim.chunks") : nullptr;
    obs::Histogram* trial_us = reg ? &reg->histogram("sim.trial_us") : nullptr;
    obs::Histogram* depth_h =
        reg ? &reg->histogram("sim.queue_depth") : nullptr;
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t c =
            next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= n_chunks) break;
        if (depth_h != nullptr) {
          depth_h->record(static_cast<std::uint64_t>(n_chunks - 1 - c));
        }
        if (chunks_c != nullptr) chunks_c->inc();
        AggregateResult& agg = partials[c];
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(runs, lo + chunk);
        for (std::size_t t = lo; t < hi; ++t) {
          if (trial_us != nullptr) {
            const auto t0 = std::chrono::steady_clock::now();
            RunResult res = simulate_run(params, rngs[t], scratch);
            const auto t1 = std::chrono::steady_clock::now();
            trial_us->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                    .count()));
            trials_c->inc();
            accumulate(agg, params, res);
          } else {
            RunResult res = simulate_run(params, rngs[t], scratch);
            accumulate(agg, params, res);
          }
        }
      }
    } catch (...) {
      const check::MutexLock lk(err_mu);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
    for (auto& th : pool) th.join();
  }
  if (error) std::rethrow_exception(error);

  AggregateResult agg;
  for (const auto& p : partials) agg.merge(p);
  if (options.metrics != nullptr) {
    for (const auto& m : worker_metrics) options.metrics->merge(m);
    options.metrics->gauge("sim.threads").set(static_cast<double>(threads));
  }
  return agg;
}

}  // namespace drum::sim

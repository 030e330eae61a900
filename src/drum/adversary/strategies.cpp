// The built-in adversary zoo. Each strategy is a pure planner: RoundView in,
// Plan out. Keep strategies free of backend knowledge — anything they "know"
// must be observable by a real attacker (public budgets, victim ids, traffic
// volume) or owned by it (colluding insiders).
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "drum/adversary/adversary.hpp"

namespace drum::adversary {
namespace {

std::uint32_t whole(double d) {
  return d <= 0.0 ? 0U : static_cast<std::uint32_t>(std::llround(d));
}

/// Splits `x` fabricated messages across the victim's enabled control
/// channels the way the paper's attacker does: half at the offer port and
/// half at the pull side, and under the wk-ports ablation the pull half is
/// shared by the request and reply ports (§9: x/2, x/4, x/4). With one
/// channel family disabled, everything goes to the other.
void add_split(Plan& plan, const RoundView& v, std::uint32_t target, double x,
               std::uint32_t claimed) {
  const std::uint32_t total = whole(x);
  const std::uint32_t pull =
      !v.pull_channel ? 0 : (v.push_channel ? total / 2 : total);
  const std::uint32_t push = v.push_channel ? total - pull : 0;
  const std::uint32_t reply = v.reply_port_attackable ? pull / 2 : 0;
  auto add = [&](Channel ch, std::uint32_t count) {
    if (count > 0) {
      plan.floods.push_back(Flood{target, ch, count, claimed});
    }
  };
  add(Channel::kOffer, push);
  add(Channel::kPullRequest, pull - reply);
  add(Channel::kPullReply, reply);
}

/// The paper's baseline (§7): x fabricated messages per victim per round,
/// split across the attackable well-known ports, all spoofed.
class Flooder final : public Adversary {
 public:
  explicit Flooder(const Params& params) : params_(params) {}
  const char* name() const override { return "flood"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    for (std::uint32_t victim : view.attacked) {
      add_split(plan, view, victim, params_.x, kSpoofed);
    }
  }

 private:
  Params params_;
};

/// Slow-drip: sends exactly ceil(budget * drip_fill) spoofed messages per
/// control channel per victim — just enough to contest every acceptance
/// slot while staying orders of magnitude below flood volume (and below any
/// rate-based detector). With budget B and B fabricated arrivals, honest
/// traffic wins each slot with probability ~1/2.
class SlowDrip final : public Adversary {
 public:
  explicit SlowDrip(const Params& params) : params_(params) {}
  const char* name() const override { return "slow-drip"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    const double fill = params_.drip_fill;
    for (std::uint32_t victim : view.attacked) {
      if (view.push_channel) {
        const std::uint32_t c = std::max<std::uint32_t>(
            1, whole(static_cast<double>(view.offer_budget) * fill));
        plan.floods.push_back(Flood{victim, Channel::kOffer, c, kSpoofed});
      }
      if (view.pull_channel) {
        const std::uint32_t c = std::max<std::uint32_t>(
            1, whole(static_cast<double>(view.pull_request_budget) * fill));
        plan.floods.push_back(
            Flood{victim, Channel::kPullRequest, c, kSpoofed});
        if (view.reply_port_attackable) {
          plan.floods.push_back(
              Flood{victim, Channel::kPullReply, c, kSpoofed});
        }
      }
    }
  }

 private:
  Params params_;
};

/// Pull-request amplification: a small squad of colluding INSIDERS per
/// victim sends valid (pair-key-sealed) control frames at both well-known
/// ports — pull requests, each eliciting a full-size reply (request bytes
/// in, data bytes out), and push offers, each eliciting a push-reply while
/// crowding honest offers out of the victim's bounded offer budget. The
/// requests starve the victim's serving capacity; the offers starve its
/// reception. Because every frame authenticates, this is attributable
/// traffic: the overuse signal in the scoring layer is aimed at exactly
/// this shape. Falls back to a spoofed flood when the adversary holds no
/// members.
class PullAmplify final : public Adversary {
 public:
  explicit PullAmplify(const Params& params) : params_(params) {}
  const char* name() const override { return "pull-amplify"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    const std::size_t m = view.colluders.size();
    if (!view.pull_channel || m == 0) {
      for (std::uint32_t victim : view.attacked) {
        add_split(plan, view, victim, params_.x, kSpoofed);
      }
      return;
    }
    const std::size_t squad = std::max<std::size_t>(
        1, std::min(params_.squad, m));
    for (std::size_t i = 0; i < view.attacked.size(); ++i) {
      const std::uint32_t victim = view.attacked[i];
      const std::uint32_t total =
          std::max<std::uint32_t>(static_cast<std::uint32_t>(squad),
                                  whole(params_.x / 4.0));
      const auto each = static_cast<std::uint32_t>(total / squad);
      const std::uint32_t offers =
          view.push_channel ? each / 2 : 0;
      const std::uint32_t requests = each - offers;
      for (std::size_t j = 0; j < squad; ++j) {
        const std::uint32_t insider =
            view.colluders[(i * squad + j) % m];
        if (requests > 0) {
          plan.floods.push_back(
              Flood{victim, Channel::kPullRequest, requests, insider});
        }
        if (offers > 0) {
          plan.floods.push_back(
              Flood{victim, Channel::kOffer, offers, insider});
        }
      }
    }
  }

 private:
  Params params_;
};

/// Adaptive re-targeting: instead of spreading x over a fixed victim set,
/// concentrate the whole budget (x * |attacked|) on the `focus` nodes that
/// looked most useful (highest observed traffic volume) last round. Until a
/// usefulness signal exists it behaves like a focused flooder on the first
/// victims.
class Adaptive final : public Adversary {
 public:
  explicit Adaptive(const Params& params) : params_(params) {}
  const char* name() const override { return "adaptive"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    targets_.clear();
    const std::size_t focus = std::max<std::size_t>(1, params_.focus);
    bool any_signal = false;
    for (float u : view.usefulness) {
      if (u > 0.0F) {
        any_signal = true;
        break;
      }
    }
    if (any_signal) {
      order_.clear();
      for (std::uint32_t id = 0; id < view.usefulness.size(); ++id) {
        if (std::find(view.colluders.begin(), view.colluders.end(), id) !=
            view.colluders.end()) {
          continue;
        }
        order_.emplace_back(view.usefulness[id], id);
      }
      const std::size_t k = std::min(focus, order_.size());
      std::partial_sort(order_.begin(), order_.begin() + k, order_.end(),
                        [](const auto& a, const auto& b) {
                          if (a.first != b.first) {
                            return a.first > b.first;
                          }
                          return a.second < b.second;
                        });
      for (std::size_t i = 0; i < k; ++i) {
        targets_.push_back(order_[i].second);
      }
    } else {
      for (std::size_t i = 0; i < view.attacked.size() && i < focus; ++i) {
        targets_.push_back(view.attacked[i]);
      }
    }
    if (targets_.empty()) {
      return;
    }
    const double per_target =
        params_.x * static_cast<double>(view.attacked.size()) /
        static_cast<double>(targets_.size());
    for (std::uint32_t t : targets_) {
      add_split(plan, view, t, per_target, kSpoofed);
    }
  }

 private:
  Params params_;
  std::vector<std::pair<float, std::uint32_t>> order_;
  std::vector<std::uint32_t> targets_;
};

/// Eclipse/partition: the colluding members poison the victims' membership
/// views so a `capture` fraction of their gossip slots point at colluders —
/// who black-hole everything sent their way (wasted fan-out, unanswered
/// pulls: the futility signal's territory). The colluders then ENFORCE the
/// partition from their captured position: posing as the victim's
/// neighbors, a squad floods its bounded offer budget with valid insider
/// offers so honest pushes stop getting through either. Cutting both the
/// victim's outbound pulls and inbound pushes is what makes an eclipse an
/// eclipse; each arm trips a different scoring signal (futility vs
/// overuse).
class Eclipse final : public Adversary {
 public:
  explicit Eclipse(const Params& params) : params_(params) {}
  const char* name() const override { return "eclipse"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    const std::size_t m = view.colluders.size();
    if (m == 0) {
      return;
    }
    plan.view_capture = std::clamp(params_.capture, 0.0, 1.0);
    if (!view.push_channel) {
      return;
    }
    const std::size_t squad = std::max<std::size_t>(
        1, std::min(params_.squad, m));
    for (std::size_t i = 0; i < view.attacked.size(); ++i) {
      const std::uint32_t victim = view.attacked[i];
      const std::uint32_t each = std::max<std::uint32_t>(
          1, whole(params_.x / (4.0 * static_cast<double>(squad))));
      for (std::size_t j = 0; j < squad; ++j) {
        const std::uint32_t insider = view.colluders[(i * squad + j) % m];
        plan.floods.push_back(Flood{victim, Channel::kOffer, each, insider});
      }
    }
  }

 private:
  Params params_;
};

/// Colluding multi-node flood: the insiders coordinate so that EACH sends at
/// most one valid pull request per victim per round — individually under the
/// per-peer allowance, collectively far over the victim's bounded budget.
/// The membership rotates which insiders hit which victim each round. The
/// remainder of the budget goes out as spoofed offers. This is the
/// strategy built to slip under per-peer scoring; the bench reports how far
/// it gets.
class Collude final : public Adversary {
 public:
  explicit Collude(const Params& params) : params_(params) {}
  const char* name() const override { return "collude"; }
  void plan_round(const RoundView& view, util::Rng& rng,
                  Plan& plan) override {
    (void)rng;
    const std::size_t m = view.colluders.size();
    for (std::size_t i = 0; i < view.attacked.size(); ++i) {
      const std::uint32_t victim = view.attacked[i];
      std::uint32_t insiders = 0;
      if (view.pull_channel && m > 0) {
        insiders = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(m, whole(params_.x / 2.0)));
        for (std::uint32_t j = 0; j < insiders; ++j) {
          const std::uint32_t insider =
              view.colluders[(i + j + view.round) % m];
          plan.floods.push_back(
              Flood{victim, Channel::kPullRequest, 1, insider});
        }
      }
      const double rest = params_.x - static_cast<double>(insiders);
      if (rest > 0.0) {
        if (view.push_channel) {
          plan.floods.push_back(
              Flood{victim, Channel::kOffer, whole(rest), kSpoofed});
        } else {
          add_split(plan, view, victim, rest, kSpoofed);
        }
      }
    }
  }

 private:
  Params params_;
};

template <typename T>
std::unique_ptr<Adversary> build(const Params& params) {
  return std::make_unique<T>(params);
}

}  // namespace

namespace detail {

void register_builtins() {
  register_strategy("flood", build<Flooder>);
  register_strategy("slow-drip", build<SlowDrip>);
  register_strategy("pull-amplify", build<PullAmplify>);
  register_strategy("adaptive", build<Adaptive>);
  register_strategy("eclipse", build<Eclipse>);
  register_strategy("collude", build<Collude>);
}

}  // namespace detail
}  // namespace drum::adversary

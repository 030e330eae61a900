// Adversary-zoo demo: runs one strategy from the drum::adversary registry
// against a LIVE swarm (real nodes, real datagrams, unsynchronized rounds),
// once with vanilla Drum and once with the peer-scoring + greylist defense,
// and prints the two windows side by side.
//
//   ./build/examples/adversary_demo                          # pull-amplify
//   ./build/examples/adversary_demo --strategy eclipse --seconds 6
//   ./build/examples/adversary_demo --strategy flood --x 256
//   ./build/examples/adversary_demo --list
#include <chrono>
#include <cstdio>
#include <string>

#include "drum/adversary/adversary.hpp"
#include "drum/harness/swarm.hpp"
#include "drum/util/flags.hpp"
#include "drum/util/table.hpp"

namespace {

drum::harness::SwarmReport run(const drum::harness::SwarmConfig& cfg,
                               std::chrono::milliseconds window) {
  drum::harness::Swarm swarm(cfg);
  swarm.start();
  swarm.run_for(window);
  swarm.stop();
  return swarm.report();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto strategy = flags.get_string("strategy", "pull-amplify",
                                   "adversary strategy (see --list)");
  bool list =
      flags.get_bool("list", false, "print registered strategies and exit");
  auto n = static_cast<std::size_t>(flags.get_int("n", 48, "live group size"));
  double alpha = flags.get_double("alpha", 0.25, "attacked fraction");
  double x = flags.get_double("x", 128, "fabricated msgs/victim/round");
  double malicious =
      flags.get_double("malicious", 0.125, "colluding-insider fraction");
  auto seconds = flags.get_double("seconds", 4, "measurement window");
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7, "RNG seed"));
  flags.done();

  if (list) {
    for (const auto& name : adversary::registered()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  harness::SwarmConfig cfg;
  cfg.variant = core::Variant::kDrum;
  cfg.n = n;
  cfg.alpha = alpha;
  cfg.attack_params.x = x;
  cfg.malicious = malicious;
  cfg.adversary = strategy;
  cfg.seed = seed;
  cfg.round = std::chrono::milliseconds(100);
  cfg.verify_signatures = false;
  const auto window = std::chrono::milliseconds(
      static_cast<std::int64_t>(seconds * 1000.0));

  std::printf("# adversary demo: strategy=%s n=%zu alpha=%.2f x=%.0f "
              "malicious=%.3f window=%.1fs\n",
              strategy.c_str(), n, alpha, x, malicious, seconds);

  auto vanilla = run(cfg, window);
  cfg.scoring.enabled = true;
  auto scored = run(cfg, window);

  util::Table t({"defense", "delivered", "lat p50 ms", "lat p99 ms",
                 "attack dgrams", "grey drops", "greylisted"});
  t.add_row({0.0, static_cast<double>(vanilla.delivered),
             vanilla.latency_ms_p50, vanilla.latency_ms_p99,
             static_cast<double>(vanilla.attack_datagrams),
             static_cast<double>(vanilla.greylist_drops),
             static_cast<double>(vanilla.greylisted_at_end)},
            1);
  t.add_row({1.0, static_cast<double>(scored.delivered),
             scored.latency_ms_p50, scored.latency_ms_p99,
             static_cast<double>(scored.attack_datagrams),
             static_cast<double>(scored.greylist_drops),
             static_cast<double>(scored.greylisted_at_end)},
            1);
  t.print("vanilla Drum (defense=0) vs Drum + peer scoring (defense=1)");

  std::printf("\ncolluders=%zu; scoring dropped %llu greylisted frames "
              "pre-budget, %llu (node,peer) pairs greylisted at end\n",
              scored.colluders,
              static_cast<unsigned long long>(scored.greylist_drops),
              static_cast<unsigned long long>(scored.greylisted_at_end));
  return 0;
}

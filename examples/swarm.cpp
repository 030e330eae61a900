// swarm — the reactor-runtime scale benchmark (DESIGN.md §8, README
// "Running a swarm").
//
// Hosts N protocol nodes plus a flooding adversary in ONE process on the
// event-driven ReactorRuntime, and reports shards / CPU / wall-clock
// delivery latency.
//
//   swarm [options]     (--help lists them)
//     --nodes N        group size                      (default 128)
//     --seconds S      measurement window              (default 10)
//     --shards LIST    comma-separated reactor shard counts, each >= 1; one
//                      phase per entry (DESIGN.md §13)  (default "1")
//     --round MS       mean round duration, ms         (default 200)
//     --rate R         source multicasts per round     (default 10)
//     --alpha A        attacked fraction               (default 0.25)
//     --x X            fabricated msgs/victim/round    (default 64)
//     --udp            loopback UDP instead of mem net
//     --no-verify      skip Ed25519 data-signature checks (CPU calibration)
//     --no-prewarm     lazy pairwise-key derivation (mandatory at 10k nodes:
//                      prewarming is O(n^2) X25519 exchanges)
//     --json PATH      write BENCH_reactor.json-style report
//     --seed S         RNG seed                        (default 1)
//
// Each shard count runs in its own sequential phase so getrusage CPU deltas
// are attributable; the JSON document carries one entry per phase. The
// shards=1 phase keeps the plain "reactor" label so existing compare_bench
// baselines stay addressable; the others are "reactor-s<K>".
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "drum/harness/swarm.hpp"
#include "drum/util/flags.hpp"

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string report_json(const std::string& mode,
                        const drum::harness::SwarmReport& r) {
  std::string out = "    {\n";
  out += "      \"mode\": \"" + mode + "\",\n";
  out += "      \"nodes\": " + std::to_string(r.nodes) + ",\n";
  out += "      \"shards\": " + std::to_string(r.shards) + ",\n";
  out += "      \"wall_s\": " + fmt(r.wall_s) + ",\n";
  out += "      \"cpu_user_s\": " + fmt(r.cpu_user_s) + ",\n";
  out += "      \"cpu_sys_s\": " + fmt(r.cpu_sys_s) + ",\n";
  out += "      \"cpu_util\": " + fmt(r.cpu_util()) + ",\n";
  out += "      \"rounds\": " + std::to_string(r.rounds) + ",\n";
  out += "      \"polls\": " + std::to_string(r.polls) + ",\n";
  out += "      \"delivered\": " + std::to_string(r.delivered) + ",\n";
  out += "      \"attack_datagrams\": " + std::to_string(r.attack_datagrams) +
         ",\n";
  out += "      \"ingress_datagrams\": " + std::to_string(r.ingress_datagrams) +
         ",\n";
  out += "      \"ingress_datagrams_per_sec\": " +
         fmt(r.ingress_datagrams_per_sec()) + ",\n";
  out += "      \"cpu_ms_per_delivered\": " + fmt(r.cpu_ms_per_delivered()) +
         ",\n";
  out += "      \"latency_samples\": " + std::to_string(r.latency_samples) +
         ",\n";
  out += "      \"latency_ms\": {\"mean\": " + fmt(r.latency_ms_mean) +
         ", \"p50\": " + fmt(r.latency_ms_p50) +
         ", \"p90\": " + fmt(r.latency_ms_p90) +
         ", \"p99\": " + fmt(r.latency_ms_p99) + "},\n";
  out += "      \"loop\": " + r.loop_metrics_json + "\n";
  out += "    }";
  return out;
}

drum::harness::SwarmReport run_phase(drum::harness::SwarmConfig cfg,
                                     int seconds, std::size_t shards,
                                     const std::string& label) {
  cfg.shards = shards;
  drum::harness::Swarm swarm(cfg);
  swarm.start();
  swarm.run_for(std::chrono::seconds(seconds));
  swarm.stop();
  auto r = swarm.report();

  std::printf(
      "%-12s nodes=%-5zu shards=%-3zu wall=%.1fs cpu=%.2fs (%.0f%%) "
      "rounds=%llu delivered=%llu flood=%llu ingress=%.0f/s "
      "cpu/msg=%.3fms lat p50/p90/p99 = %.1f/%.1f/%.1f ms\n",
      label.c_str(), r.nodes, r.shards, r.wall_s,
      r.cpu_total_s(), 100.0 * r.cpu_util(),
      static_cast<unsigned long long>(r.rounds),
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.attack_datagrams),
      r.ingress_datagrams_per_sec(), r.cpu_ms_per_delivered(),
      r.latency_ms_p50, r.latency_ms_p90, r.latency_ms_p99);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  drum::util::Flags flags(argc, argv);
  drum::harness::SwarmConfig cfg;
  cfg.n = static_cast<std::size_t>(flags.get_int("nodes", 128, "group size"));
  const auto seconds =
      static_cast<int>(flags.get_int("seconds", 10, "measurement window"));
  const auto shards = flags.get_size_list(
      "shards", "1",
      "comma-separated reactor shard counts, each >= 1; one phase per entry");
  const auto round_ms =
      flags.get_int("round", 200, "mean round duration, ms");
  cfg.round = std::chrono::milliseconds(round_ms);
  cfg.rate = static_cast<std::size_t>(
      flags.get_int("rate", 10, "source multicasts per round"));
  cfg.alpha = flags.get_double("alpha", 0.25, "attacked fraction");
  cfg.attack_params.x =
      flags.get_double("x", 64, "fabricated msgs/victim/round");
  cfg.use_udp =
      flags.get_bool("udp", false, "loopback UDP instead of mem net");
  cfg.verify_signatures = !flags.get_bool(
      "no-verify", false,
      "skip Ed25519 data-signature checks (CPU calibration)");
  cfg.prewarm = !flags.get_bool(
      "no-prewarm", false,
      "lazy pairwise-key derivation (mandatory at 10k nodes: prewarming is "
      "O(n^2) X25519 exchanges)");
  const auto json_path =
      flags.get_string("json", "", "write a BENCH_reactor.json-style report");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  flags.done();
  if (std::find(shards.begin(), shards.end(), 0) != shards.end()) {
    std::fprintf(stderr, "--shards needs one or more counts, each >= 1\n");
    return 2;
  }
  std::printf(
      "swarm: %zu nodes, %ds window, round %lldms, alpha=%.2f x=%.0f, %s\n",
      cfg.n, seconds, static_cast<long long>(round_ms), cfg.alpha,
      cfg.attack_params.x, cfg.use_udp ? "udp" : "mem");

  std::vector<std::string> entries;
  for (std::size_t sh : shards) {
    const std::string label =
        sh == 1 ? "reactor" : "reactor-s" + std::to_string(sh);
    entries.push_back(report_json(label, run_phase(cfg, seconds, sh, label)));
  }

  if (!json_path.empty()) {
    std::string out = "{\n  \"bench\": \"reactor_swarm\",\n";
    out += "  \"config\": {\"nodes\": " + std::to_string(cfg.n);
    out += ", \"seconds\": " + std::to_string(seconds);
    out += ", \"round_ms\": " + std::to_string(round_ms);
    out += ", \"rate\": " + std::to_string(cfg.rate);
    out += ", \"alpha\": " + fmt(cfg.alpha);
    out += ", \"x\": " + fmt(cfg.attack_params.x);
    out += ", \"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(shards[i]);
    }
    out += "], \"prewarm\": " + std::string(cfg.prewarm ? "true" : "false");
    out += ", \"transport\": \"" + std::string(cfg.use_udp ? "udp" : "mem");
    out += "\", \"seed\": " + std::to_string(cfg.seed) + "},\n";
    out += "  \"phases\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out += entries[i];
      out += i + 1 < entries.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    std::ofstream f(json_path);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    f << out;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

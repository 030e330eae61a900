// swarm — the reactor-runtime scale benchmark (DESIGN.md §8, README
// "Running a swarm").
//
// Hosts N protocol nodes plus a flooding adversary in ONE process on the
// event-driven ReactorRuntime, and reports shards / CPU / wall-clock
// delivery latency.
//
//   swarm [options]
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "drum/harness/swarm.hpp"

namespace {

struct Options {
  std::size_t nodes = 128;
  int seconds = 10;
  std::vector<std::size_t> shards = {1};
  int round_ms = 200;
  std::size_t rate = 10;
  double alpha = 0.25;
  double x = 64.0;
  bool udp = false;
  bool verify = true;
  bool prewarm = true;
  std::string json_path;
  std::uint64_t seed = 1;
};

std::vector<std::size_t> parse_size_list(const char* s) {
  std::vector<std::size_t> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(std::strtoull(cur.c_str(), nullptr, 10));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

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

drum::harness::SwarmReport run_phase(const Options& opt, std::size_t shards,
                                     const std::string& label) {
  drum::harness::SwarmConfig cfg;
  cfg.n = opt.nodes;
  cfg.alpha = opt.alpha;
  cfg.x = opt.x;
  cfg.seed = opt.seed;
  cfg.round = std::chrono::milliseconds(opt.round_ms);
  cfg.rate = opt.rate;
  cfg.use_udp = opt.udp;
  cfg.verify_signatures = opt.verify;
  cfg.shards = shards;
  cfg.prewarm = opt.prewarm;

  drum::harness::Swarm swarm(cfg);
  swarm.start();
  swarm.run_for(std::chrono::seconds(opt.seconds));
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
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--nodes") {
      opt.nodes = static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--seconds") {
      opt.seconds = std::atoi(next());
    } else if (a == "--shards") {
      opt.shards = parse_size_list(next());
      if (opt.shards.empty() ||
          std::find(opt.shards.begin(), opt.shards.end(), 0) !=
              opt.shards.end()) {
        std::fprintf(stderr, "--shards needs one or more counts, each >= 1\n");
        return 2;
      }
    } else if (a == "--round") {
      opt.round_ms = std::atoi(next());
    } else if (a == "--rate") {
      opt.rate = static_cast<std::size_t>(std::atoll(next()));
    } else if (a == "--alpha") {
      opt.alpha = std::atof(next());
    } else if (a == "--x") {
      opt.x = std::atof(next());
    } else if (a == "--udp") {
      opt.udp = true;
    } else if (a == "--no-verify") {
      opt.verify = false;
    } else if (a == "--no-prewarm") {
      opt.prewarm = false;
    } else if (a == "--json") {
      opt.json_path = next();
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return 2;
    }
  }
  std::printf(
      "swarm: %zu nodes, %ds window, round %dms, alpha=%.2f x=%.0f, %s\n",
      opt.nodes, opt.seconds, opt.round_ms, opt.alpha, opt.x,
      opt.udp ? "udp" : "mem");

  std::vector<std::string> entries;
  for (std::size_t sh : opt.shards) {
    const std::string label =
        sh == 1 ? "reactor" : "reactor-s" + std::to_string(sh);
    entries.push_back(report_json(label, run_phase(opt, sh, label)));
  }

  if (!opt.json_path.empty()) {
    std::string out = "{\n  \"bench\": \"reactor_swarm\",\n";
    out += "  \"config\": {\"nodes\": " + std::to_string(opt.nodes);
    out += ", \"seconds\": " + std::to_string(opt.seconds);
    out += ", \"round_ms\": " + std::to_string(opt.round_ms);
    out += ", \"rate\": " + std::to_string(opt.rate);
    out += ", \"alpha\": " + fmt(opt.alpha);
    out += ", \"x\": " + fmt(opt.x);
    out += ", \"shards\": [";
    for (std::size_t i = 0; i < opt.shards.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(opt.shards[i]);
    }
    out += "], \"prewarm\": " + std::string(opt.prewarm ? "true" : "false");
    out += ", \"transport\": \"" + std::string(opt.udp ? "udp" : "mem");
    out += "\", \"seed\": " + std::to_string(opt.seed) + "},\n";
    out += "  \"phases\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out += entries[i];
      out += i + 1 < entries.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    std::ofstream f(opt.json_path);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    f << out;
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  return 0;
}

// Shared helpers for the figure-reproduction binaries. Each binary prints
// the rows/series of one figure from the paper via drum::util::Table, in
// both aligned and CSV form. Flags allow scaling run counts back up to the
// paper's full 1000 runs/point.
#pragma once

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "drum/harness/cluster.hpp"
#include "drum/sim/engine.hpp"
#include "drum/util/flags.hpp"
#include "drum/util/table.hpp"

namespace drum::bench {

/// Registers the shared --threads flag of every sim-driven fig binary and
/// returns the corresponding execution options. Thread count never changes
/// a reported number — simulate_many is bit-identical for every value (see
/// DESIGN.md §9) — it only changes how fast the sweep finishes.
inline sim::SimOptions sim_options_from_flags(util::Flags& flags) {
  sim::SimOptions o;
  o.threads = static_cast<std::size_t>(flags.get_int(
      "threads", 0,
      "simulation worker threads (0 = DRUM_SIM_THREADS env or hardware "
      "concurrency); results are identical for every value"));
  return o;
}

/// One simulated data point: mean/std propagation time to 99% of correct
/// processes (and the attacked/non-attacked splits).
inline sim::AggregateResult sim_point(core::Variant proto, std::size_t n,
                                      double alpha, double x,
                                      std::size_t runs, std::uint64_t seed,
                                      std::size_t max_rounds = 600,
                                      double crashed = 0.0,
                                      double malicious = 0.1,
                                      const sim::SimOptions& opt = {}) {
  sim::SimParams p;
  p.protocol = proto;
  p.n = n;
  p.alpha = alpha;
  p.x = x;
  p.max_rounds = max_rounds;
  p.crashed_fraction = crashed;
  p.malicious_fraction = malicious;
  return sim::simulate_many(p, runs, seed, opt);
}

/// Summary of one measured (real-implementation) data point.
struct MeasuredPoint {
  double propagation_rounds_mean = 0;
  double propagation_rounds_std = 0;
  double throughput_msgs_per_sec = 0;
  double throughput_msgs_per_round = 0;
  double latency_ms_mean = 0;
  std::vector<harness::ClusterMetrics::PerNode> per_node;
  std::uint64_t completed = 0, sent = 0;
  /// Cluster::metrics_json() snapshot taken after the drain: config +
  /// merged all/attacked/non-attacked registries (per-channel counters and
  /// budget histograms) + network registry + flat per-node stats.
  std::string metrics_json;
  /// Per-round progression over the measurement window (Cluster CSV).
  std::string timeseries_csv;
};

struct MeasureOpts {
  std::size_t n = 50;
  std::size_t rate = 40;           // msgs per round
  double warmup_rounds = 5;
  double measured_rounds = 30;
  double drain_rounds = 15;
  std::int64_t round_us = 100'000; // paper: 1 s; compressed (DESIGN.md §6)
  bool verify_signatures = false;  // paper had 50 CPUs; see EXPERIMENTS.md
  bool use_udp = false;
  std::uint64_t seed = 1;
  std::uint16_t udp_base_port = 21000;
};

inline MeasuredPoint measured_point(core::Variant variant, double alpha,
                                    double x, const MeasureOpts& o) {
  harness::ClusterConfig cfg;
  cfg.variant = variant;
  cfg.n = o.n;
  cfg.alpha = alpha;
  cfg.x = x;
  cfg.rate = o.rate;
  cfg.round_us = o.round_us;
  cfg.verify_signatures = o.verify_signatures;
  cfg.use_udp = o.use_udp;
  cfg.seed = o.seed;
  cfg.udp_base_port = o.udp_base_port;
  harness::Cluster cluster(cfg);
  cluster.run_rounds(o.warmup_rounds, true);
  cluster.begin_measurement();
  cluster.run_rounds(o.measured_rounds, true);
  cluster.end_measurement();
  cluster.run_rounds(o.drain_rounds, false);

  const auto& m = cluster.metrics();
  MeasuredPoint out;
  // No message reached the 99% threshold inside the run: report NaN rather
  // than a misleading 0 (happens for Push under the harshest attacks).
  out.propagation_rounds_mean =
      m.messages_completed ? m.propagation_rounds.mean()
                           : std::numeric_limits<double>::quiet_NaN();
  out.propagation_rounds_std = m.propagation_rounds.stddev();
  out.throughput_msgs_per_sec = m.mean_throughput_msgs_per_sec();
  out.throughput_msgs_per_round =
      out.throughput_msgs_per_sec * static_cast<double>(o.round_us) / 1e6;
  out.latency_ms_mean = m.mean_latency_ms();
  out.per_node = m.nodes;
  out.completed = m.messages_completed;
  out.sent = m.messages_sent;
  out.metrics_json = cluster.metrics_json();
  out.timeseries_csv = cluster.timeseries().to_csv();
  return out;
}

/// Composes per-point snapshots into one JSON artifact:
/// {"figure":...,"points":[{<labels...>, "metrics": <cluster json>}]}.
/// Labels are pre-rendered "\"key\": value" fragments.
class MetricsArtifact {
 public:
  explicit MetricsArtifact(std::string figure) : figure_(std::move(figure)) {}

  /// `labels` are complete fragments, e.g. {"\"variant\": \"drum\"",
  /// "\"x\": 32"}.
  void add_point(const std::vector<std::string>& labels,
                 const std::string& metrics_json) {
    std::string p = "    {";
    for (const auto& l : labels) p += l + ", ";
    p += "\"metrics\": " + metrics_json + "}";
    points_.push_back(std::move(p));
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\n  \"figure\": \"" + figure_ + "\",\n";
    out += "  \"points\": [\n";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      out += points_[i];
      out += (i + 1 < points_.size()) ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the artifact; prints where it went (or a warning on failure).
  void write(const std::string& path) const {
    if (obs::write_text_file(path, to_json())) {
      std::printf("# metrics artifact: %s\n", path.c_str());
    } else {
      std::printf("# WARNING: could not write metrics artifact %s\n",
                  path.c_str());
    }
  }

 private:
  std::string figure_;
  std::vector<std::string> points_;
};

inline void print_header(const char* figure, const char* description) {
  std::printf("#\n# %s — %s\n#\n", figure, description);
}

}  // namespace drum::bench

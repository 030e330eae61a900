// Figure 6 of the paper (simulation): propagation time vs x split by
// destination population — (a) to 99% of the NON-attacked processes,
// (b) to 99% of the ATTACKED processes. Push reaches non-attacked processes
// quickly but attacked ones very slowly; Drum is fast to both.
#include "bench_common.hpp"

#include "drum/analysis/appendix_c.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 1000, "group size"));
  auto measured_rounds = flags.get_double(
      "measured-rounds", 30, "measurement window for the real-node section");
  auto metrics_out = flags.get_string(
      "metrics-out", "fig06_metrics.json",
      "per-point instrumentation artifact (empty string disables)");
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 6",
                      "propagation time to non-attacked vs attacked "
                      "processes, alpha=10% (simulations)");

  util::Table a({"x", "drum", "push", "pull"});
  util::Table b({"x", "drum", "push", "pull"});
  for (double x : {32.0, 64.0, 96.0, 128.0}) {
    std::vector<double> row_non{x}, row_att{x};
    for (auto proto : {core::Variant::kDrum, core::Variant::kPush,
                       core::Variant::kPull}) {
      auto agg = bench::sim_point(proto, n, 0.1, x, runs, seed, 600, 0.0, 0.1, opts);
      row_non.push_back(agg.rounds_to_target_non_attacked.mean());
      row_att.push_back(agg.rounds_to_target_attacked.mean());
    }
    a.add_row(row_non, 2);
    b.add_row(row_att, 2);
  }
  a.print("Figure 6(a): propagation time to 99% of non-attacked (rounds)");
  b.print("Figure 6(b): propagation time to 99% of attacked (rounds)");

  // Cross-check against the Appendix C two-population analysis: first round
  // at which the expected per-population coverage reaches 99%.
  util::Table c({"x", "drum non-att (ana)", "drum att (ana)",
                 "push non-att (ana)", "push att (ana)"});
  for (double x : {32.0, 64.0, 96.0, 128.0}) {
    std::vector<double> row{x};
    for (auto proto : {analysis::Protocol::kDrum, analysis::Protocol::kPush}) {
      analysis::DetailedParams dp;
      dp.protocol = proto;
      dp.n = n;
      dp.b = n / 10;
      dp.alpha = 0.1;
      dp.x = x;
      auto split = analysis::expected_coverage_split(dp, 200);
      auto first_at = [](const std::vector<double>& v) {
        for (std::size_t r = 0; r < v.size(); ++r) {
          if (v[r] >= 0.99) return static_cast<double>(r);
        }
        return static_cast<double>(v.size());
      };
      row.push_back(first_at(split.non_attacked));
      row.push_back(first_at(split.attacked));
    }
    c.add_row(row, 0);
  }
  c.print("Figure 6 (analysis): rounds to 99% expected per-population "
          "coverage (Appendix C)");

  // Measured counterpart on the real implementation (n=50, like the paper's
  // testbed): per-population received throughput, plus the instrumentation
  // that explains it — flushed-unread and budget-exhaustion split between
  // attacked and non-attacked nodes goes into the metrics artifact.
  bench::MeasureOpts mo;
  mo.seed = seed;
  mo.measured_rounds = measured_rounds;
  bench::MetricsArtifact artifact("fig06");
  util::Table d({"x", "variant", "att msg/round", "non-att msg/round",
                 "att flushed", "non-att flushed"});
  struct Proto {
    const char* name;
    core::Variant v;
  } protos[] = {{"drum", core::Variant::kDrum},
                {"push", core::Variant::kPush}};
  for (double x : {32.0, 128.0}) {
    for (const auto& p : protos) {
      harness::ClusterConfig ccfg;
      ccfg.variant = p.v;
      ccfg.n = mo.n;
      ccfg.alpha = 0.1;
      ccfg.x = x;
      ccfg.rate = mo.rate;
      ccfg.round_us = mo.round_us;
      ccfg.verify_signatures = mo.verify_signatures;
      ccfg.seed = seed;
      harness::Cluster cluster(ccfg);
      cluster.run_rounds(mo.warmup_rounds, true);
      cluster.begin_measurement();
      cluster.run_rounds(measured_rounds, true);
      cluster.end_measurement();
      cluster.run_rounds(mo.drain_rounds, false);

      // Mean delivered per round, split by population.
      double att = 0, non = 0;
      std::size_t n_att = 0, n_non = 0;
      for (const auto& per : cluster.metrics().nodes) {
        (per.attacked ? att : non) += static_cast<double>(per.delivered);
        ++(per.attacked ? n_att : n_non);
      }
      const double window_rounds =
          static_cast<double>(cluster.metrics().window_us) /
          static_cast<double>(ccfg.round_us);
      auto per_round = [&](double total, std::size_t count) {
        return count ? total / static_cast<double>(count) / window_rounds
                     : 0.0;
      };
      const auto att_reg =
          cluster.merged_registry(harness::Cluster::NodeSet::kAttacked);
      const auto non_reg =
          cluster.merged_registry(harness::Cluster::NodeSet::kNonAttacked);
      d.add_row({util::fmt(x, 0), p.name, util::fmt(per_round(att, n_att), 2),
                 util::fmt(per_round(non, n_non), 2),
                 std::to_string(att_reg.counter_value("node.flushed_unread")),
                 std::to_string(non_reg.counter_value("node.flushed_unread"))});
      artifact.add_point({"\"variant\": \"" + std::string(p.name) + "\"",
                          "\"alpha\": 0.1",
                          "\"x\": " + std::to_string(static_cast<int>(x))},
                         cluster.metrics_json());
    }
  }
  d.print("Figure 6 (measured, n=50): received throughput and flushed-unread "
          "datagrams by population");
  if (!metrics_out.empty()) artifact.write(metrics_out);
  return 0;
}

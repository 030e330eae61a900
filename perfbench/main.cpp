// drumbench — one workload, one seed, one run; prints one JSON line.
//
//   drumbench --workload flood|steady|scale --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// --trace 0 runs the workload on the program's ReactorRuntime and reports
// the end-to-end metrics. --trace 1 runs it twice, each for half the window:
// on ReactorRuntime (runtime counters), then on the traced driver with the
// timing decorator (spans), and reports the per-layer metrics, the
// microbench anchors and the tracing overhead (traced minus untraced).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "drum/crypto/api.hpp"
#include "drum/crypto/backend.hpp"
#include "drum/crypto/portbox.hpp"
#include "phase.hpp"

namespace {

using namespace drumbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "drumbench: %s\nusage: drumbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown flag " + k);
    }
  }
  if (!find_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) usage("bad arguments");
  return a;
}

/// Ordered name -> value map, printed as JSON with every digit.
class Metrics {
 public:
  void set(const std::string& name, double v) { m_[name] = v; }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const auto& [k, v] : m_) {
      if (out.size() > 1) out += ", ";
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
      out += "\"" + k + "\": " + buf;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> m_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double verify_batch_mean(const TraceResult& t) {
  return ratio(static_cast<double>(t.stats.sigs_verified),
               static_cast<double>(t.stats.verify_calls));
}

/// Mean seconds per call of `fn` over at least `min_s` of wall time.
template <typename Fn>
double time_per_call(Fn&& fn, double min_s = 0.2) {
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 8; ++i) fn();
    calls += 8;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

/// Microbench anchors: each stage's primitive timed here, on this host, so
/// the traced stage costs can be checked against bench/microbench.
void anchors(std::uint64_t seed, double verify_batch_mean, Metrics& m) {
  util::Rng rng(seed ^ 0xA2C408ull);
  const auto a = crypto::Identity::generate(rng);
  const auto b = crypto::Identity::generate(rng);

  const std::size_t batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(verify_batch_mean + 0.5));
  std::vector<util::Bytes> msgs(batch, util::Bytes(96));
  std::vector<crypto::VerifyJob> jobs;
  for (auto& msg : msgs) {
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    jobs.push_back({a.sign_public(), util::ByteSpan(msg),
                    a.sign(util::ByteSpan(msg))});
  }
  bool all_ok = true;
  const double verify_s = time_per_call([&] {
    const auto ok = crypto::ed25519_verify_batch(jobs);
    all_ok = all_ok && std::all_of(ok.begin(), ok.end(), [](bool v) { return v; });
  });
  if (!all_ok) throw std::runtime_error("anchor: valid signatures rejected");
  m.set("crypto.verify_us_per_sig", verify_s * 1e6 / static_cast<double>(batch));

  m.set("crypto.x25519_us", time_per_call([&] {
          const auto k = a.derive_pair_key(b.dh_public());
          if (k.empty()) throw std::runtime_error("anchor: empty pair key");
        }) * 1e6);

  const auto key = a.derive_pair_key(b.dh_public());
  util::Bytes box(crypto::kPortBoxOverhead + 2);
  for (auto& byte : box) byte = static_cast<std::uint8_t>(rng.next());
  bool opened = false;
  m.set("crypto.portbox_open_us", time_per_call([&] {
          opened = opened || crypto::portbox_open_port(util::ByteSpan(key),
                                                       util::ByteSpan(box));
        }) * 1e6);
  if (opened) throw std::runtime_error("anchor: garbage box opened");
}

void end_to_end(const PhaseResult& r, Metrics& m) {
  m.set("setup_s", median(r.setup_totals_s));
  m.set("delivery_ratio", r.delivery_ratio());
  m.set("latency_p50_ms", r.latency_p50_ms);
  m.set("latency_p99_ms", r.latency_p99_ms);
  m.set("victim_latency_p99_ms", r.victim_latency_p99_ms);
  m.set("defender_cpu_ms_per_delivered", r.defender_cpu_ms_per_delivered());
  m.set("rounds_on_time", r.rounds_on_time);
  m.set("peak_rss_mb", r.peak_rss_mb);
}

/// Sample counts and the billing split, printed beside the metrics.
void detail(const char* prefix, const PhaseResult& r, Metrics& d) {
  const std::string p = prefix;
  d.set(p + "messages", static_cast<double>(r.messages));
  d.set(p + "pairs", static_cast<double>(r.pairs));
  d.set(p + "victim_pairs", static_cast<double>(r.victim_pairs));
  d.set(p + "delivered_pairs", static_cast<double>(r.delivered_pairs));
  d.set(p + "setups", static_cast<double>(r.setup_totals_s.size()));
  d.set(p + "runtime_cpu_s", r.runtime_cpu_s);
  d.set(p + "source_cpu_s", r.source_cpu_s);
  d.set(p + "flooder_cpu_s", r.flooder_cpu_s);
  d.set(p + "flood_sent", static_cast<double>(r.flood_sent));
  d.set(p + "wall_s", r.wall_s);
  d.set(p + "shard_busy_max", r.shard_busy_max);
  d.set(p + "duplicates", static_cast<double>(r.duplicates));
  d.set(p + "mismatches", static_cast<double>(r.mismatches));
  d.set(p + "budget_violations", static_cast<double>(r.budget_violations));
}

void per_layer(const PhaseResult& a, const PhaseResult& b,
               const TraceResult& t, Metrics& m) {
  const SpanSummary& s = t.summary;
  const KindStats& recv = s[SpanKind::kRecv];
  const KindStats& send = s[SpanKind::kSend];
  const KindStats& bind = s[SpanKind::kBind];
  m.set("net.recv_calls", static_cast<double>(recv.count));
  m.set("net.recv_datagrams", static_cast<double>(recv.items));
  m.set("net.recv_s", recv.total_s);
  m.set("net.datagrams_per_recv", ratio(recv.items, recv.count));
  m.set("net.binds", static_cast<double>(bind.items));
  m.set("net.bind_s", bind.total_s);
  m.set("net.send_calls", static_cast<double>(send.count));
  m.set("net.send_datagrams", static_cast<double>(send.items));
  m.set("net.send_s", send.total_s);
  m.set("net.datagrams_per_send", ratio(send.items, send.count));
  m.set("net.loop_wakeups",
        static_cast<double>(a.runtime.counter_value("loop.wakeups")));
  m.set("net.timer_slop_us_p99",
        a.runtime.histogram_quantile("loop.timer_slop_us", 0.99));

  m.set("crypto.sigs_verified", static_cast<double>(t.stats.sigs_verified));
  m.set("crypto.verify_batch_mean", verify_batch_mean(t));
  m.set("crypto.boxes_opened", static_cast<double>(t.stats.boxes_opened));
  m.set("crypto.boxes_rejected", static_cast<double>(t.stats.boxes_rejected));
  m.set("crypto.x25519_derivations",
        static_cast<double>(t.x25519_derivations));

  m.set("core.drain_s", s[SpanKind::kDrain].self_s);
  m.set("core.verify_s", s[SpanKind::kVerify].self_s);
  m.set("core.ingest_s", s[SpanKind::kIngest].self_s);
  m.set("core.round_s", s[SpanKind::kRound].self_s);
  m.set("core.multicast_s", s[SpanKind::kMulticast].self_s);
  const auto& n = a.nodes;
  const double read = static_cast<double>(n.counter_value("node.datagrams_read"));
  const double delivered = static_cast<double>(n.counter_value("node.delivered"));
  const double dups = static_cast<double>(n.counter_value("node.duplicates"));
  std::uint64_t exhausted = 0;
  for (const char* ch : {"offer", "pull_req", "push_reply", "pull_data", "push_data"}) {
    exhausted += n.counter_value(std::string("chan.") + ch + ".budget_exhausted");
  }
  m.set("core.datagrams_read", read);
  m.set("core.flushed_unread",
        static_cast<double>(n.counter_value("node.flushed_unread")));
  m.set("core.budget_exhausted", static_cast<double>(exhausted));
  m.set("core.box_failures",
        static_cast<double>(n.counter_value("node.box_failures")));
  m.set("core.useful_ratio", ratio(delivered, read));
  m.set("core.duplicate_ratio", ratio(dups, delivered + dups));

  const auto& rt = a.runtime;
  m.set("runtime.defender_cpu_s", a.runtime_cpu_s);
  m.set("runtime.shard_busy_max", a.shard_busy_max);
  m.set("runtime.poll_us_p99", n.histogram_quantile("runner.poll_us", 0.99));
  m.set("runtime.tick_wait_us_p99",
        n.histogram_quantile("reactor.dispatch_us", 0.99));
  m.set("runtime.timer_resyncs",
        static_cast<double>(rt.counter_value("reactor.timer_resyncs")));
  m.set("runtime.ring_handoffs",
        static_cast<double>(rt.counter_value("reactor.shard.ring_handoffs")));
  m.set("runtime.ring_full_fallbacks",
        static_cast<double>(rt.counter_value("reactor.shard.ring_full_fallbacks")));

  m.set("harness.identities_s", a.setup.identities_s);
  m.set("harness.nodes_s", a.setup.nodes_s);
  m.set("harness.prewarm_s", a.setup.prewarm_s);
  m.set("harness.start_s", a.setup.start_s);

  m.set("adversary.sent_per_s", ratio(static_cast<double>(a.flood_sent), a.flood_s));
  m.set("adversary.cpu_s", a.flooder_cpu_s);
  m.set("gen.source_cpu_s", a.source_cpu_s);
  m.set("gen.source_lateness_ms_p99", a.source_lateness_p99_ms);
  m.set("gen.flood_lateness_ms_p99", a.flood_lateness_p99_ms);

  // Closure: how much of the traced driver's thread CPU the stage spans
  // account for.
  m.set("trace.stage_sum_s", s.runtime_top_level_s);
  m.set("trace.closure_ratio", ratio(s.runtime_top_level_s, b.runtime_cpu_s));
  m.set("trace.spans", static_cast<double>(s.spans));
  m.set("trace.overhead_cpu_ms_per_delivered",
        b.defender_cpu_ms_per_delivered() - a.defender_cpu_ms_per_delivered());
  m.set("trace.overhead_latency_p50_ms", b.latency_p50_ms - a.latency_p50_ms);
  m.set("trace.overhead_latency_p99_ms", b.latency_p99_ms - a.latency_p99_ms);
  m.set("trace.overhead_delivery_ratio", b.delivery_ratio() - a.delivery_ratio());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& w = *find_workload(args.workload);
  try {
    const Inputs in =
        make_inputs(w, args.seed, window_messages(w, args.seconds));
    Metrics m;
    Metrics d;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto account = [&](const PhaseResult& r) {
      correct = correct && r.correct();
      attempted += r.pairs;
      failed += r.pairs - r.delivered_pairs;
    };
    if (args.trace == 0) {
      PhaseSpec spec;
      spec.repeat_setups = true;
      spec.seconds = args.seconds;
      const PhaseResult r = run_phase(w, in, args.seed, spec, nullptr);
      account(r);
      end_to_end(r, m);
      detail("", r, d);
    } else {
      PhaseSpec spec;
      spec.seconds = args.seconds / 2;
      const PhaseResult a = run_phase(w, in, args.seed, spec, nullptr);
      spec.traced = true;
      spec.spans_path = args.spans_out;
      TraceResult t;
      const PhaseResult b = run_phase(w, in, args.seed, spec, &t);
      account(a);
      account(b);
      per_layer(a, b, t, m);
      anchors(args.seed, verify_batch_mean(t), m);
      detail("untraced.", a, d);
      detail("traced.", b, d);
      Metrics e2e_a;
      end_to_end(a, e2e_a);
      d.set("spans_written", t.spans_written ? 1 : 0);
      std::printf("untraced e2e: %s\n", e2e_a.json().c_str());
    }
    d.set("crypto_backend_native",
          std::string(crypto::active_backend().name) == "scalar" ? 0 : 1);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
                "\"detail\": %s}\n",
                w.name, static_cast<unsigned long long>(args.seed),
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), m.json().c_str(),
                d.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drumbench: %s\n", e.what());
    return 1;
  }
}

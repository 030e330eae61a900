// drumbench phases: one set-up of the group, an open-loop window driven by
// the benchmark's source (and, on `flood`, flooder) thread, a drain tail,
// and the checks and figures taken from it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "drum/obs/metrics.hpp"
#include "tracing.hpp"

namespace drumbench {

/// What runs the group's nodes: the program's ReactorRuntime, or the
/// benchmark-owned traced driver.
class Host {
 public:
  virtual ~Host() = default;
  virtual void start() = 0;
  virtual void stop() = 0;
  /// Multicasts through node 0, the source; thread-safe.
  virtual void multicast(util::ByteSpan payload) = 0;
  /// Runtime telemetry ("loop.*", "reactor.*"); valid after stop().
  [[nodiscard]] virtual const obs::MetricsRegistry* runtime_registry() const {
    return nullptr;
  }
};

std::unique_ptr<Host> make_reactor_host(Group& g, const Workload& w,
                                        std::uint64_t seed);

/// Traced-driver statistics the driver gathers from the batches it holds.
struct DriverStats {
  std::uint64_t sigs_verified = 0;
  std::uint64_t verify_calls = 0;  ///< verify() calls with >= 1 signature
  std::uint64_t boxes_opened = 0;
  std::uint64_t boxes_rejected = 0;
};

/// Builds the benchmark-owned traced driver. Its shard threads record into
/// SpanLogs it owns; `runtime_logs` receives pointers to them, valid until
/// the host is destroyed.
std::unique_ptr<Host> make_traced_host(Group& g, const Workload& w,
                                       std::uint64_t seed, TracedNet& tn,
                                       std::vector<const SpanLog*>& runtime_logs,
                                       DriverStats& stats);

/// Everything one phase measured.
struct PhaseResult {
  std::vector<double> setup_totals_s;  ///< one per set-up repetition
  SetupTimes setup;                    ///< the measured (last) set-up

  std::uint64_t messages = 0;
  std::uint64_t pairs = 0;            ///< messages x receivers
  std::uint64_t delivered_pairs = 0;
  std::uint64_t victim_pairs = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double victim_latency_p99_ms = 0;

  double wall_s = 0;          ///< runtime start to stop
  double runtime_cpu_s = 0;   ///< every runtime thread
  double shard_busy_max = 0;  ///< max over runtime threads of cpu / wall
  double source_cpu_s = 0;    ///< the source's multicast calls
  double flooder_cpu_s = 0;
  std::uint64_t flood_sent = 0;
  double flood_s = 0;         ///< how long the flooder ran
  double source_lateness_p99_ms = 0;
  double flood_lateness_p99_ms = 0;
  double rounds_on_time = 0;
  double peak_rss_mb = 0;

  std::uint64_t duplicates = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t budget_violations = 0;

  obs::MetricsRegistry nodes;    ///< every node's registry merged
  obs::MetricsRegistry runtime;  ///< the runtime's own registry (reactor)

  [[nodiscard]] bool correct() const {
    return duplicates == 0 && mismatches == 0 && budget_violations == 0;
  }
  [[nodiscard]] double delivery_ratio() const {
    return pairs ? static_cast<double>(delivered_pairs) /
                       static_cast<double>(pairs)
                 : 0.0;
  }
  [[nodiscard]] double defender_cpu_ms_per_delivered() const {
    return delivered_pairs ? (runtime_cpu_s + source_cpu_s) * 1e3 /
                                 static_cast<double>(delivered_pairs)
                           : 0.0;
  }
};

/// How a phase hosts its nodes.
struct PhaseSpec {
  /// Set up several times (setup_s is their median; see run_phase) instead
  /// of once. Either way the last set-up is the one measured.
  bool repeat_setups = false;
  double seconds = 10;
  bool traced = false;       ///< traced driver + timing decorator
  std::string spans_path;    ///< traced: where to write the spans ("": nowhere)
};

/// Traced-phase results (filled only when spec.traced).
struct TraceResult {
  SpanSummary summary;
  DriverStats stats;
  std::uint64_t x25519_derivations = 0;  ///< prewarmed + first contacts
  bool spans_written = false;
};

PhaseResult run_phase(const Workload& w, const Inputs& in,
                      std::uint64_t seed, const PhaseSpec& spec,
                      TraceResult* trace);

/// Multicasts in a window of `seconds` at the workload's rate.
std::size_t window_messages(const Workload& w, double seconds);

}  // namespace drumbench

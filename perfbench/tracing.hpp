// drumbench tracing: in-memory spans around every call the benchmark makes
// into a layer's public function, and a timing decorator for net::Transport.
//
// Each thread records into its own SpanLog (no locks on the hot path); the
// logs are summarized and written out when the run ends. A span's self time
// is its duration minus the time its child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "drum/net/transport.hpp"

namespace drumbench {

enum class SpanKind : std::uint8_t {
  kDrain,      ///< core::Node::drain_ingress
  kVerify,     ///< core::ingress::IngressBatch::verify
  kIngest,     ///< core::Node::ingest
  kRound,      ///< core::Node::on_round
  kMulticast,  ///< core::Node::multicast
  kRecv,       ///< net::Socket::recv / recv_batch
  kSend,       ///< net::Socket::send / send_many
  kBind,       ///< net::Transport::bind
  kDeliver,    ///< the benchmark's own delivery check (excluded from core)
};
inline constexpr std::size_t kSpanKinds = 9;
const char* span_name(SpanKind k);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t msg = 0;     ///< message sequence number, when one applies
  std::int32_t parent = -1;  ///< index in the same log; -1 = top level
  std::uint32_t items = 0;   ///< datagrams moved, frames ingested, ...
  SpanKind kind = SpanKind::kDrain;
};

struct KindStats {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  double total_s = 0;
  double self_s = 0;
};

/// One thread's spans. Every span is aggregated by kind as it closes; the
/// first `capacity` are also kept for the span file.
class SpanLog {
 public:
  explicit SpanLog(std::string thread_name, std::size_t capacity = 1 << 18);

  void open(SpanKind kind, std::uint64_t msg);
  void close(std::uint32_t items);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& thread_name() const { return name_; }
  [[nodiscard]] const std::array<KindStats, kSpanKinds>& stats() const {
    return stats_;
  }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Time covered by top-level spans.
  [[nodiscard]] double top_level_s() const { return top_level_s_; }

  /// The calling thread's log (nullptr: tracing off on this thread).
  static SpanLog*& current();

 private:
  struct Open {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;  ///< index in spans_, or -1 past capacity
    SpanKind kind;
  };
  std::string name_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::vector<Open> stack_;
  std::array<KindStats, kSpanKinds> stats_{};
  std::uint64_t recorded_ = 0;
  double top_level_s_ = 0;
};

/// RAII span on the calling thread's log; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::uint64_t msg = 0)
      : log_(SpanLog::current()) {
    if (log_) log_->open(kind, msg);
  }
  ~ScopedSpan() {
    if (log_) log_->close(items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(std::size_t n) { items_ = static_cast<std::uint32_t>(n); }

 private:
  SpanLog* log_;
  std::uint32_t items_ = 0;
};

struct SpanSummary {
  std::array<KindStats, kSpanKinds> kinds{};
  std::uint64_t spans = 0;  ///< recorded (the file keeps fewer past capacity)
  /// Top-level span time on the logs passed as `runtime_logs`.
  double runtime_top_level_s = 0;
  [[nodiscard]] const KindStats& operator[](SpanKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

SpanSummary summarize(const std::vector<const SpanLog*>& logs,
                      const std::vector<const SpanLog*>& runtime_logs);

/// Writes every span as one CSV row: thread,kind,start_ns,end_ns,parent,
/// msg,items. Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

/// Per-group state of the timing decorator: wraps transports, and tracks
/// which (node, peer) pairs have been in contact — a node derives the X25519
/// pair key for a peer on first contact, so each newly seen pair is one
/// derivation.
class TracedNet {
 public:
  TracedNet(const Workload& w, std::size_t nodes);

  std::unique_ptr<net::Transport> wrap(std::uint32_t node,
                                       std::unique_ptr<net::Transport> inner);

  /// Marks every pair as known (pair keys prewarmed at set-up); the pairs
  /// not yet in contact count as derivations.
  void mark_all();
  /// Records contact between `node` and `peer`; true when it is new.
  bool contact(std::uint32_t node, std::uint32_t peer);
  /// Which node a well-known destination address belongs to (-1: none).
  [[nodiscard]] std::int64_t peer_of(const net::Address& to) const;

  /// Pair keys derived so far: prewarmed pairs plus first contacts.
  [[nodiscard]] std::uint64_t derivations() const { return new_pairs_; }

 private:
  bool udp_;
  std::size_t n_;
  std::vector<std::uint8_t> known_;  // n x n; row a written by a's thread
  std::atomic<std::uint64_t> new_pairs_{0};
};

}  // namespace drumbench

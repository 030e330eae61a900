#include "tracing.hpp"

#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

namespace drumbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The timing decorator around one node socket: every call is a span, and
/// sends to a peer's well-known port count as contact with that peer.
class TracedSocket final : public net::Socket {
 public:
  TracedSocket(std::unique_ptr<net::Socket> inner, TracedNet& tn,
               std::uint32_t node)
      : inner_(std::move(inner)), tn_(tn), node_(node) {}

  std::optional<net::Datagram> recv() override {
    ScopedSpan s(SpanKind::kRecv);
    auto d = inner_->recv();
    s.set_items(d ? 1 : 0);
    return d;
  }
  std::size_t recv_batch(net::Datagram* out, std::size_t max) override {
    ScopedSpan s(SpanKind::kRecv);
    const std::size_t got = inner_->recv_batch(out, max);
    s.set_items(got);
    return got;
  }
  void send(const net::Address& to, util::ByteSpan payload) override {
    note(to);
    ScopedSpan s(SpanKind::kSend);
    s.set_items(1);
    inner_->send(to, payload);
  }
  void send_many(const net::OutboundDatagram* msgs,
                 std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) note(msgs[i].to);
    ScopedSpan s(SpanKind::kSend);
    s.set_items(count);
    inner_->send_many(msgs, count);
  }
  [[nodiscard]] net::Address local() const override { return inner_->local(); }
  [[nodiscard]] int native_handle() const override {
    return inner_->native_handle();
  }
  void set_ready_callback(std::function<void()> cb) override {
    inner_->set_ready_callback(std::move(cb));
  }

 private:
  void note(const net::Address& to) {
    const std::int64_t peer = tn_.peer_of(to);
    if (peer >= 0) tn_.contact(node_, static_cast<std::uint32_t>(peer));
  }

  std::unique_ptr<net::Socket> inner_;
  TracedNet& tn_;
  std::uint32_t node_;
};

class TracedTransport final : public net::Transport {
 public:
  TracedTransport(std::unique_ptr<net::Transport> inner, TracedNet& tn,
                  std::uint32_t node)
      : inner_(std::move(inner)), tn_(tn), node_(node) {}

  net::BindResult bind(std::uint16_t port) override {
    ScopedSpan s(SpanKind::kBind);
    auto res = inner_->bind(port);
    if (!res) return res;
    s.set_items(1);
    return std::make_unique<TracedSocket>(res.take(), tn_, node_);
  }
  [[nodiscard]] std::uint32_t host() const override { return inner_->host(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  TracedNet& tn_;
  std::uint32_t node_;
};

}  // namespace

const char* span_name(SpanKind k) {
  static constexpr const char* kNames[kSpanKinds] = {
      "core.drain",   "crypto.verify", "core.ingest",
      "core.round",   "core.multicast", "net.recv",
      "net.send",     "net.bind",      "bench.deliver"};
  return kNames[static_cast<std::size_t>(k)];
}

SpanLog::SpanLog(std::string thread_name, std::size_t capacity)
    : name_(std::move(thread_name)), capacity_(capacity) {
  spans_.reserve(capacity_);
}

SpanLog*& SpanLog::current() {
  thread_local SpanLog* log = nullptr;
  return log;
}

void SpanLog::open(SpanKind kind, std::uint64_t msg) {
  Open o{now_ns(), 0, -1, kind};
  if (spans_.size() < capacity_) {
    Span s;
    s.kind = kind;
    s.msg = msg;
    s.start_ns = o.start_ns;
    s.parent = stack_.empty() ? -1 : stack_.back().kept;
    o.kept = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  }
  stack_.push_back(o);
}

void SpanLog::close(std::uint32_t items) {
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - o.start_ns;
  KindStats& k = stats_[static_cast<std::size_t>(o.kind)];
  ++k.count;
  k.items += items;
  k.total_s += static_cast<double>(dur) * 1e-9;
  k.self_s += static_cast<double>(dur - o.child_ns) * 1e-9;
  ++recorded_;
  if (stack_.empty()) {
    top_level_s_ += static_cast<double>(dur) * 1e-9;
  } else {
    stack_.back().child_ns += dur;
  }
  if (o.kept >= 0) {
    Span& s = spans_[static_cast<std::size_t>(o.kept)];
    s.end_ns = end;
    s.items = items;
  }
}

SpanSummary summarize(const std::vector<const SpanLog*>& logs,
                      const std::vector<const SpanLog*>& runtime_logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < kSpanKinds; ++i) {
      const KindStats& k = log->stats()[i];
      out.kinds[i].count += k.count;
      out.kinds[i].items += k.items;
      out.kinds[i].total_s += k.total_s;
      out.kinds[i].self_s += k.self_s;
    }
    out.spans += log->recorded();
  }
  for (const SpanLog* log : runtime_logs) {
    out.runtime_top_level_s += log->top_level_s();
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "thread,kind,start_ns,end_ns,parent,msg,items\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s,%s,%lld,%lld,%d,%llu,%u\n",
                   log->thread_name().c_str(), span_name(s.kind),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.msg), s.items);
    }
  }
  return std::fclose(f) == 0;
}

TracedNet::TracedNet(const Workload& w, std::size_t nodes)
    : udp_(w.udp), n_(nodes), known_(nodes * nodes, 0) {}

std::unique_ptr<net::Transport> TracedNet::wrap(
    std::uint32_t node, std::unique_ptr<net::Transport> inner) {
  return std::make_unique<TracedTransport>(std::move(inner), *this, node);
}

void TracedNet::mark_all() {
  for (std::uint32_t a = 0; a < n_; ++a) {
    for (std::uint32_t b = 0; b < n_; ++b) contact(a, b);
  }
}

bool TracedNet::contact(std::uint32_t node, std::uint32_t peer) {
  if (node >= n_ || peer >= n_ || node == peer) return false;
  std::uint8_t& k = known_[static_cast<std::size_t>(node) * n_ + peer];
  if (k) return false;
  k = 1;
  new_pairs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::int64_t TracedNet::peer_of(const net::Address& to) const {
  if (!udp_) return to.host < n_ ? static_cast<std::int64_t>(to.host) : -1;
  if (to.port < kUdpBasePort) return -1;
  const std::size_t id = (to.port - kUdpBasePort) / 3;
  return id < n_ ? static_cast<std::int64_t>(id) : -1;
}

}  // namespace drumbench

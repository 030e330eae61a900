// Workloads, inputs, the hosted group, the flooder, the reactor host, and
// one measured phase.
#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "drum/core/config.hpp"
#include "drum/core/message.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/runtime/reactor.hpp"
#include "phase.hpp"

namespace drumbench {

using std::chrono::milliseconds;

namespace {

// The three workloads (why each exists: perfbench/README.md).
const Workload kWorkloads[] = {
    {.name = "flood",
     .nodes = 128,
     .udp = true,
     .shards = 1,
     .x = 2048,
     .round = milliseconds(400),
     .rate = 4,
     .payload = 64,
     .prewarm = true,
     .tail_rounds = 8},
    {.name = "steady",
     .nodes = 256,
     .udp = false,
     .shards = 2,
     .x = 0,
     .round = milliseconds(200),
     .rate = 10,
     .payload = 1024,
     .prewarm = true,
     .tail_rounds = 10},
    {.name = "scale",
     .nodes = 768,
     .udp = false,
     .shards = 2,
     .x = 0,
     .round = milliseconds(500),
     .rate = 4,
     .payload = 64,
     .prewarm = false,
     .tail_rounds = 8},
};

// Repeated set-ups: at least three, and cheap ones more often (until they
// have taken about 2 s together, at most nine), so setup_s is a median of
// enough samples on every workload.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

constexpr std::size_t kFloodBursts = 20;  // per round
constexpr std::size_t kFloodPool = 512;   // distinct frames per channel

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

Clock::duration scaled(milliseconds round, double factor) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(round) * factor);
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::size_t window_messages(const Workload& w, double seconds) {
  const double rounds = seconds * 1000.0 / static_cast<double>(w.round.count());
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(rounds * static_cast<double>(w.rate)));
}

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   std::size_t messages) {
  Inputs in;
  util::Rng rng(seed ^ 0x5EEDB0A7D5EEDull);
  in.payloads.resize(messages);
  for (std::size_t seq = 0; seq < messages; ++seq) {
    util::Bytes& p = in.payloads[seq];
    p.resize(w.payload);  // >= 8: the sequence number leads
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    for (std::size_t i = 8; i < p.size(); ++i) {
      p[i] = static_cast<std::uint8_t>(rng.next());
    }
  }
  if (w.x == 0) return in;
  // Spoofed control frames: a random claimed sender and a garbage port box,
  // as an off-path attacker who knows the protocol but no pair key would
  // send them.
  auto garbage_box = [&] {
    util::Bytes box(crypto::kPortBoxOverhead + 2);
    for (auto& b : box) b = static_cast<std::uint8_t>(rng.next());
    return box;
  };
  for (std::size_t i = 0; i < kFloodPool; ++i) {
    core::PushOffer offer;
    offer.sender = static_cast<std::uint32_t>(rng.below(w.nodes));
    offer.boxed_reply_port = garbage_box();
    in.offer_pool.push_back(core::encode(offer));
    core::PullRequest req;
    req.sender = static_cast<std::uint32_t>(rng.below(w.nodes));
    req.boxed_reply_port = garbage_box();
    in.pull_pool.push_back(core::encode(req));
  }
  return in;
}

// ---- Recorder ---------------------------------------------------------------

Recorder::Recorder(const Inputs& in, std::size_t nodes)
    : in_(in), nodes_(nodes), at_(in.payloads.size() * nodes) {
  for (auto& a : at_) a.store(kNever, std::memory_order_relaxed);
}

void Recorder::on_delivery(std::uint32_t node,
                           const core::Node::Delivery& d) {
  ScopedSpan span(SpanKind::kDeliver, d.msg.id.seqno);
  const std::int64_t now = steady_ns(Clock::now());
  const std::uint64_t seq = d.msg.id.seqno;
  // Only the source (node 0) multicasts, and every payload it sent is known:
  // anything else reaching the application is fabricated or corrupted.
  if (d.msg.id.source != 0 || seq >= in_.payloads.size() ||
      d.msg.payload != in_.payloads[seq]) {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::int64_t never = kNever;
  if (!at_[seq * nodes_ + node].compare_exchange_strong(
          never, now, std::memory_order_relaxed)) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- Group ------------------------------------------------------------------

Group::Group(const Workload& w, std::uint64_t seed, Recorder& rec,
             TracedNet* traced, SetupTimes& times) {
  util::Rng rng(seed);
  const std::uint32_t udp_host = net::parse_ipv4("127.0.0.1");

  auto t0 = Clock::now();
  std::vector<crypto::Identity> identities;
  std::vector<core::Peer> dir(w.nodes);
  identities.reserve(w.nodes);
  for (std::uint32_t id = 0; id < w.nodes; ++id) {
    identities.push_back(crypto::Identity::generate(rng));
    core::Peer& p = dir[id];
    p.id = id;
    p.host = w.udp ? udp_host : id;
    p.wk_pull_port = static_cast<std::uint16_t>(kUdpBasePort + 3 * id);
    p.wk_offer_port = static_cast<std::uint16_t>(kUdpBasePort + 3 * id + 1);
    p.sign_pub = identities[id].sign_public();
    p.dh_pub = identities[id].dh_public();
  }
  directory_ = std::make_shared<const std::vector<core::Peer>>(std::move(dir));
  auto t1 = Clock::now();
  times.identities_s = seconds_between(t0, t1);

  if (!w.udp) {
    net::MemNetwork::Options opts;
    opts.seed = rng.next();
    opts.latency_us = 0;  // wall-clock delivery; the runtime is the clock
    mem_ = std::make_unique<net::MemNetwork>(opts);
  }
  transports_.reserve(w.nodes);
  nodes_.reserve(w.nodes);
  for (std::uint32_t id = 0; id < w.nodes; ++id) {
    std::unique_ptr<net::Transport> tr =
        w.udp ? std::make_unique<net::UdpTransport>(udp_host)
              : mem_->transport(id);
    if (traced) tr = traced->wrap(id, std::move(tr));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id, 4);
    const core::Peer& self = (*directory_)[id];
    cfg.wk_pull_port = self.wk_pull_port;
    cfg.wk_offer_port = self.wk_offer_port;
    nodes_.push_back(std::make_unique<core::Node>(
        cfg, identities[id], directory_, *tr, rng.next(),
        [&rec, id](const core::Node::Delivery& d) { rec.on_delivery(id, d); }));
    transports_.push_back(std::move(tr));
  }
  auto t2 = Clock::now();
  times.nodes_s = seconds_between(t1, t2);

  if (w.prewarm) {
    // Pair keys are a join-time cost (paper §2); each of the runtime's
    // shards prewarms its own slice of the nodes, in parallel.
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < w.shards; ++s) {
      workers.emplace_back([this, s, &w] {
        for (std::size_t i = s; i < nodes_.size(); i += w.shards) {
          nodes_[i]->prewarm_pair_keys();
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  times.prewarm_s = seconds_between(t2, Clock::now());
}

// ---- threads and CPU ---------------------------------------------------------

std::vector<pid_t> list_threads() {
  std::vector<pid_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      out.push_back(static_cast<pid_t>(std::atol(e->d_name)));
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

double thread_cpu_s(pid_t tid) {
  // Linux per-thread CPU clock of another thread in this process (the
  // encoding pthread_getcpuclockid uses): CPUCLOCK_SCHED | PERTHREAD.
  const clockid_t cid = static_cast<clockid_t>((~tid) * 8 + 6);
  timespec ts{};
  if (::clock_gettime(cid, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  // Fields after the comm: state is field 3; utime and stime are 14 and 15.
  const char* p = line.c_str() + close + 2;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (std::sscanf(p, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0.0;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- the flooder --------------------------------------------------------------

namespace {

/// The spoofed flood (paper §7): x datagrams per victim per round, split
/// evenly between the offer and pull-request well-known ports, paced in
/// bursts. The benchmark owns this thread, so its CPU is read directly and
/// never billed to the defender.
class Flooder {
 public:
  Flooder(const Workload& w, const std::vector<core::Peer>& dir,
          const Inputs& in)
      : w_(w), dir_(dir) {
    for (const auto& b : in.offer_pool) offer_.emplace_back(b);
    for (const auto& b : in.pull_pool) pull_.emplace_back(b);
  }
  ~Flooder() { stop(); }
  Flooder(const Flooder&) = delete;
  Flooder& operator=(const Flooder&) = delete;

  void start() {
    start_ = Clock::now();
    thread_ = std::thread([this] { main(); });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t sent = 0;
  double cpu_s = 0;
  double run_s = 0;
  std::vector<double> lateness_ms;
  bool failed = false;

 private:
  void main() {
    net::UdpTransport tr(net::parse_ipv4("127.0.0.1"));
    auto sock = tr.bind(0).take();
    if (!sock) {
      failed = true;
      return;
    }
    const std::size_t victims = victim_count(w_);
    const std::size_t per_channel = w_.x / 2;
    const Clock::duration gap = scaled(w_.round, 1.0 / kFloodBursts);
    std::size_t cursor = 0;
    for (std::uint64_t burst = 0; !stop_.load(); ++burst) {
      const auto due = start_ + gap * static_cast<std::int64_t>(burst);
      std::this_thread::sleep_until(due);
      lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      const std::size_t b = burst % kFloodBursts;
      const std::size_t count =
          per_channel / kFloodBursts + (b < per_channel % kFloodBursts ? 1 : 0);
      for (std::size_t v = 1; v <= victims; ++v) {
        const core::Peer& p = dir_[v];
        cursor = (cursor + 61) % (kFloodPool - count);
        sock->send_batch(net::Address{p.host, p.wk_offer_port},
                         offer_.data() + cursor, count);
        sock->send_batch(net::Address{p.host, p.wk_pull_port},
                         pull_.data() + cursor, count);
        sent += 2 * count;
      }
    }
    cpu_s = self_cpu_s();
    run_s = seconds_between(start_, Clock::now());
  }

  const Workload& w_;
  const std::vector<core::Peer>& dir_;
  std::vector<util::ByteSpan> offer_;
  std::vector<util::ByteSpan> pull_;
  Clock::time_point start_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class ReactorHost final : public Host {
 public:
  ReactorHost(Group& g, const Workload& w, std::uint64_t seed)
      : rt_(config(w)) {
    util::Rng rng(seed ^ kTickSalt);
    for (std::size_t i = 0; i < g.size(); ++i) rt_.add_node(g.node(i), rng.next());
  }
  void start() override { rt_.start(); }
  void stop() override { rt_.stop(); }
  void multicast(util::ByteSpan payload) override { rt_.multicast(0, payload); }
  [[nodiscard]] const obs::MetricsRegistry* runtime_registry() const override {
    return &rt_.loop_registry();
  }

 private:
  static drum::runtime::ReactorConfig config(const Workload& w) {
    drum::runtime::ReactorConfig rc;
    rc.round = w.round;
    rc.jitter = kJitter;
    rc.workers = 0;          // pinned: no worker pool
    rc.shards = w.shards;    // pinned: never host-dependent auto
    rc.instrument = true;
    return rc;
  }
  drum::runtime::ReactorRuntime rt_;
};

/// Budget the paper's bound allows channel `name` per round.
std::size_t channel_budget(const core::NodeConfig& c, const std::string& name) {
  if (name == "offer") return c.offer_budget();
  if (name == "pull_req") return c.pull_request_budget();
  if (name == "push_reply") return c.push_reply_budget();
  if (name == "pull_data") return c.pull_data_budget();
  return c.push_data_budget();
}

}  // namespace

std::unique_ptr<Host> make_reactor_host(Group& g, const Workload& w,
                                        std::uint64_t seed) {
  return std::make_unique<ReactorHost>(g, w, seed);
}

// ---- one phase ------------------------------------------------------------------

PhaseResult run_phase(const Workload& w, const Inputs& in, std::uint64_t seed,
                      const PhaseSpec& spec, TraceResult* trace) {
  PhaseResult r;
  const std::size_t messages =
      std::min(window_messages(w, spec.seconds), in.payloads.size());
  const std::size_t n = w.nodes;

  double setup_sum_s = 0;
  for (int rep = 0;; ++rep) {
    const bool measured =
        !spec.repeat_setups || rep + 1 >= kMaxSetups ||
        (rep + 1 >= kMinSetups &&
         setup_sum_s * (rep + 1) / rep >= kSetupBudgetS);
    auto rec = std::make_unique<Recorder>(in, n);
    std::unique_ptr<TracedNet> tn;
    if (spec.traced) tn = std::make_unique<TracedNet>(w, n);
    SetupTimes times;
    auto group = std::make_unique<Group>(w, seed, *rec, tn.get(), times);
    if (tn && w.prewarm) tn->mark_all();

    const auto before = list_threads();
    std::vector<const SpanLog*> runtime_logs;
    DriverStats stats;
    const auto host_begin = Clock::now();
    std::unique_ptr<Host> host =
        spec.traced
            ? make_traced_host(*group, w, seed, *tn, runtime_logs, stats)
            : make_reactor_host(*group, w, seed);
    host->start();
    const auto run_begin = Clock::now();
    times.start_s = seconds_between(host_begin, run_begin);
    r.setup_totals_s.push_back(times.total());
    setup_sum_s += times.total();
    if (!measured) {
      host->stop();
      continue;
    }
    r.setup = times;
    std::vector<pid_t> runtime_tids;
    {
      const auto after = list_threads();
      std::set_difference(after.begin(), after.end(), before.begin(),
                          before.end(), std::back_inserter(runtime_tids));
    }

    std::unique_ptr<Flooder> flooder;
    if (w.x > 0) {
      flooder = std::make_unique<Flooder>(w, group->directory(), in);
      flooder->start();
    }

    // The source: open loop, one multicast every round / rate from the
    // first due time on, whatever the group's state.
    std::unique_ptr<SpanLog> source_log;
    if (spec.traced) {
      source_log = std::make_unique<SpanLog>("source", 1 << 16);
      SpanLog::current() = source_log.get();
    }
    const auto first_due = run_begin + scaled(w.round, 1.0);  // warm-up round
    const auto interval = scaled(w.round, 1.0 / static_cast<double>(w.rate));
    std::vector<std::int64_t> due_ns(messages);
    std::vector<double> lateness_ms(messages);
    for (std::size_t i = 0; i < messages; ++i) {
      const auto due = first_due + interval * static_cast<std::int64_t>(i);
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      due_ns[i] = steady_ns(due);
      lateness_ms[i] = std::chrono::duration<double, std::milli>(now - due).count();
      const double c0 = self_cpu_s();
      {
        ScopedSpan span(SpanKind::kMulticast, i);
        host->multicast(util::ByteSpan(in.payloads[i]));
      }
      r.source_cpu_s += self_cpu_s() - c0;
    }
    SpanLog::current() = nullptr;
    const auto window_end = first_due + interval * static_cast<std::int64_t>(messages);
    std::this_thread::sleep_until(window_end + scaled(w.round, w.tail_rounds));

    if (flooder) {
      flooder->stop();
      if (flooder->failed) throw std::runtime_error("flooder could not bind");
      r.flooder_cpu_s = flooder->cpu_s;
      r.flood_sent = flooder->sent;
      r.flood_s = flooder->run_s;
      r.flood_lateness_p99_ms = percentile(flooder->lateness_ms, 0.99);
    }
    const auto stop_at = Clock::now();
    r.wall_s = seconds_between(host_begin, stop_at);
    for (pid_t tid : runtime_tids) {
      const double cpu = thread_cpu_s(tid);
      r.runtime_cpu_s += cpu;
      r.shard_busy_max = std::max(r.shard_busy_max, cpu / r.wall_s);
    }
    host->stop();
    r.source_lateness_p99_ms = percentile(lateness_ms, 0.99);

    // Latency from each multicast's due time, over every (message, receiver)
    // pair; an undelivered pair counts as delivered when the run stopped,
    // later than every delivered one.
    const std::int64_t stop_ns = steady_ns(stop_at);
    std::vector<double> all;
    std::vector<double> victims;
    all.reserve(messages * (n - 1));
    for (std::size_t seq = 0; seq < messages; ++seq) {
      for (std::uint32_t node = 1; node < n; ++node) {
        std::int64_t at = rec->delivered_at_ns(seq, node);
        if (at == Recorder::kNever) {
          at = stop_ns;
        } else {
          ++r.delivered_pairs;
        }
        const double ms = static_cast<double>(at - due_ns[seq]) * 1e-6;
        all.push_back(ms);
        if (is_victim(w, node)) victims.push_back(ms);
      }
    }
    r.messages = messages;
    r.pairs = all.size();
    r.victim_pairs = victims.size();
    r.latency_p50_ms = percentile(all, 0.50);
    r.latency_p99_ms = percentile(all, 0.99);
    r.victim_latency_p99_ms = percentile(victims, 0.99);
    r.duplicates = rec->duplicates();
    r.mismatches = rec->mismatches();

    static const char* kChannels[] = {"offer", "pull_req", "push_reply",
                                      "pull_data", "push_data"};
    for (std::size_t i = 0; i < n; ++i) {
      const core::Node& node = group->node(i);
      for (const char* ch : kChannels) {
        const auto* h =
            node.registry().find_histogram(std::string("chan.") + ch + ".budget_used");
        if (h && h->max() > channel_budget(node.config(), ch)) {
          ++r.budget_violations;
        }
      }
      r.nodes.merge(node.registry());
    }
    if (const auto* reg = host->runtime_registry()) r.runtime.merge(*reg);
    const double configured_rounds =
        static_cast<double>(n) * r.wall_s * 1000.0 /
        static_cast<double>(w.round.count());
    r.rounds_on_time =
        static_cast<double>(r.nodes.counter_value("node.rounds")) /
        configured_rounds;

    if (trace) {
      std::vector<const SpanLog*> logs;
      if (source_log) logs.push_back(source_log.get());
      logs.insert(logs.end(), runtime_logs.begin(), runtime_logs.end());
      trace->summary = summarize(logs, runtime_logs);
      trace->stats = stats;
      trace->x25519_derivations = tn->derivations();
      trace->spans_written =
          !spec.spans_path.empty() && write_spans(spec.spans_path, logs);
    }
    host.reset();
    group.reset();
    r.peak_rss_mb = peak_rss_mb();
    return r;
  }
}

}  // namespace drumbench

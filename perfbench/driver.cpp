// The traced driver: runs the group's nodes through their public entry
// points — Node::drain_ingress, IngressBatch::verify, Node::ingest,
// Node::on_round, Node::multicast — on the same number of shard threads as
// the workload's ReactorRuntime, with a span around every call. Readiness
// and round timers come from one net::EventLoop per shard; each loop
// iteration ends with a batched drain -> verify -> ingest pass, as in the
// runtime it stands in for.
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "drum/net/event_loop.hpp"
#include "phase.hpp"

namespace drumbench {

namespace {

constexpr std::size_t kChunk = 64;  // nodes per drain/verify/ingest pass

class TracedDriver final : public Host {
 public:
  TracedDriver(Group& g, const Workload& w, std::uint64_t seed, TracedNet& tn,
               std::vector<const SpanLog*>& runtime_logs, DriverStats& stats)
      : w_(w), tn_(tn), out_(stats) {
    for (std::size_t s = 0; s < w.shards; ++s) {
      auto sh = std::make_unique<Shard>();
      sh->log = std::make_unique<SpanLog>("shard" + std::to_string(s));
      runtime_logs.push_back(sh->log.get());
      shards_.push_back(std::move(sh));
    }
    util::Rng rng(seed ^ kTickSalt);
    for (std::size_t i = 0; i < g.size(); ++i) {
      slots_.emplace_back(g.node(i), i % w.shards, rng.next());
    }
  }
  ~TracedDriver() override { stop(); }
  TracedDriver(const TracedDriver&) = delete;
  TracedDriver& operator=(const TracedDriver&) = delete;

  void start() override {
    for (auto& shp : shards_) {
      Shard* sh = shp.get();
      sh->loop.set_cycle_callback([this, sh] { cycle(*sh); });
    }
    for (Slot& slot : slots_) {
      Slot* sp = &slot;
      net::EventLoop& loop = shards_[slot.shard]->loop;
      slot.node->set_socket_hook([this, sp, &loop](net::Socket& sock,
                                                   bool added) {
        if (added) {
          sp->sources[&sock] =
              loop.add_socket(sock, [this, sp] { mark_ready(*sp); });
        } else if (auto it = sp->sources.find(&sock); it != sp->sources.end()) {
          loop.remove_socket(it->second);
          sp->sources.erase(it);
        }
      });
      slot.next_deadline = Clock::now() + jittered(slot);
      arm(slot);
    }
    for (auto& shp : shards_) {
      Shard* sh = shp.get();
      sh->loop.reset();
      sh->thread = std::thread([sh] {
        SpanLog::current() = sh->log.get();
        sh->loop.run();
        SpanLog::current() = nullptr;
      });
    }
    running_ = true;
  }

  void stop() override {
    if (!running_) return;
    running_ = false;
    for (auto& sh : shards_) sh->loop.stop();
    for (auto& sh : shards_) sh->thread.join();
    for (Slot& slot : slots_) {
      net::EventLoop& loop = shards_[slot.shard]->loop;
      loop.cancel_timer(slot.timer);
      slot.node->set_socket_hook(nullptr);
      for (auto& [sock, id] : slot.sources) loop.remove_socket(id);
      slot.sources.clear();
    }
    for (auto& sh : shards_) {
      out_.sigs_verified += sh->stats.sigs_verified;
      out_.verify_calls += sh->stats.verify_calls;
      out_.boxes_opened += sh->stats.boxes_opened;
      out_.boxes_rejected += sh->stats.boxes_rejected;
    }
  }

  void multicast(util::ByteSpan payload) override {
    Slot& src = slots_.front();
    std::lock_guard<std::mutex> lock(src.mu);
    src.node->multicast(payload);
  }

 private:
  struct Slot {
    Slot(core::Node& n, std::size_t sh, std::uint64_t seed)
        : node(&n), shard(sh), rng(seed) {}
    core::Node* node;
    /// Serializes the source thread's multicast with the shard thread.
    std::mutex mu;
    std::size_t shard;
    // Home shard thread only (main thread while stopped).
    util::Rng rng;
    Clock::time_point next_deadline{};
    net::EventLoop::TimerId timer = 0;
    bool queued = false;
    std::unordered_map<net::Socket*, net::EventLoop::SourceId> sources;
  };

  struct Shard {
    net::EventLoop loop;
    std::vector<Slot*> ready;
    std::vector<Slot*> due;
    std::vector<Slot*> proc;
    core::ingress::IngressBatch batch;
    std::unique_ptr<SpanLog> log;
    DriverStats stats;
    std::thread thread;
  };

  Clock::duration jittered(Slot& slot) {
    const double j = 1.0 + kJitter * (2.0 * slot.rng.uniform() - 1.0);
    return std::chrono::duration_cast<Clock::duration>(w_.round * j);
  }

  void arm(Slot& slot) {
    Slot* sp = &slot;
    slot.timer = shards_[slot.shard]->loop.add_timer(
        slot.next_deadline, [this, sp] { on_timer(*sp); });
  }

  // Loop thread. Round deadlines grow from the previous deadline, and a
  // node more than a round behind resynchronizes, as in ReactorRuntime.
  void on_timer(Slot& slot) {
    shards_[slot.shard]->due.push_back(&slot);
    slot.next_deadline += jittered(slot);
    const auto now = Clock::now();
    if (slot.next_deadline <= now) slot.next_deadline = now + jittered(slot);
    arm(slot);
  }

  void mark_ready(Slot& slot) {
    if (slot.queued) return;
    slot.queued = true;
    shards_[slot.shard]->ready.push_back(&slot);
  }

  void cycle(Shard& sh) {
    sh.proc.clear();
    sh.proc.swap(sh.due);
    for (Slot* slot : sh.proc) {
      std::lock_guard<std::mutex> lock(slot->mu);
      ScopedSpan span(SpanKind::kRound);
      slot->node->on_round();
    }
    sh.proc.clear();
    sh.proc.swap(sh.ready);
    for (Slot* slot : sh.proc) slot->queued = false;
    for (std::size_t i = 0; i < sh.proc.size(); i += kChunk) {
      const std::size_t end = std::min(sh.proc.size(), i + kChunk);
      ingress_pass(sh, i, end);
    }
    sh.proc.clear();
  }

  void ingress_pass(Shard& sh, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Slot* slot = sh.proc[i];
      std::lock_guard<std::mutex> lock(slot->mu);
      ScopedSpan span(SpanKind::kDrain);
      slot->node->drain_ingress(sh.batch);
    }
    std::uint64_t sigs = 0;
    std::uint64_t boxes = 0;
    for (auto& sec : sh.batch.sections()) {
      const std::uint32_t id = sec.node->config().id;
      for (const auto& f : sec.frames) {
        if (f.channel == core::Channel::kPullData ||
            f.channel == core::Channel::kPushData) {
          for (const auto& c : f.candidates) sigs += c.needs_verify ? 1 : 0;
        } else {
          ++boxes;
          tn_.contact(id, f.sender);  // the node derived this pair key
        }
      }
    }
    {
      ScopedSpan span(SpanKind::kVerify);
      span.set_items(sigs + boxes);
      sh.batch.verify();
    }
    sh.stats.sigs_verified += sigs;
    sh.stats.verify_calls += sigs > 0 ? 1 : 0;
    sh.stats.boxes_opened += boxes;
    for (std::size_t i = begin; i < end; ++i) {
      Slot* slot = sh.proc[i];
      auto& frames = sh.batch.section_for(*slot->node).frames;
      for (const auto& f : frames) {
        const bool control = f.channel != core::Channel::kPullData &&
                             f.channel != core::Channel::kPushData;
        if (control && !f.port) ++sh.stats.boxes_rejected;
      }
      if (frames.empty()) continue;
      std::lock_guard<std::mutex> lock(slot->mu);
      ScopedSpan span(SpanKind::kIngest);
      span.set_items(frames.size());
      slot->node->ingest(std::span<core::ingress::VerifiedFrame>(frames));
    }
    sh.batch.clear();
  }

  const Workload& w_;
  TracedNet& tn_;
  DriverStats& out_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::deque<Slot> slots_;  // deque: stable addresses, non-movable slots
  bool running_ = false;
};

}  // namespace

std::unique_ptr<Host> make_traced_host(Group& g, const Workload& w,
                                       std::uint64_t seed, TracedNet& tn,
                                       std::vector<const SpanLog*>& runtime_logs,
                                       DriverStats& stats) {
  return std::make_unique<TracedDriver>(g, w, seed, tn, runtime_logs, stats);
}

}  // namespace drumbench

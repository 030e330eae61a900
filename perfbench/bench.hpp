// drumbench — shared types of the end-to-end Drum defense benchmark.
//
// The benchmark hosts a group of core::Node objects itself (identities,
// directory, transports, runtime) instead of going through harness::Swarm,
// so that it can bill only defender threads, stamp latency from when a
// multicast was due, split attacked receivers from the rest, and wrap each
// node's transport in a timing decorator for the traced run.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/util/bytes.hpp"

namespace drumbench {

namespace core = drum::core;
namespace crypto = drum::crypto;
namespace net = drum::net;
namespace obs = drum::obs;
namespace util = drum::util;

using Clock = std::chrono::steady_clock;

/// One workload: the group's shape and the open-loop load driven at it.
struct Workload {
  const char* name = "";
  std::size_t nodes = 0;
  bool udp = false;         ///< loopback UDP instead of the in-process network
  std::size_t shards = 1;   ///< ReactorConfig::shards, pinned (never 0/auto)
  std::size_t x = 0;        ///< spoofed datagrams per victim per round (0: none)
  std::chrono::milliseconds round{200};
  std::size_t rate = 1;     ///< source multicasts per round
  std::size_t payload = 64; ///< bytes per multicast
  bool prewarm = true;      ///< derive every pair key at set-up
  double tail_rounds = 8;   ///< drain tail after the source stops
};

/// Round-tick jitter (+/- fraction of the round), as ReactorConfig's default.
inline constexpr double kJitter = 0.2;
/// Salt deriving the hosts' tick-jitter RNG seeds from the run's seed.
inline constexpr std::uint64_t kTickSalt = 0x7E4C7012ull;

/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// Everything the seed determines, generated before any timed set-up.
struct Inputs {
  std::vector<util::Bytes> payloads;  ///< one per multicast; seq in bytes 0..7
  std::vector<util::Bytes> offer_pool;  ///< spoofed push-offer frames
  std::vector<util::Bytes> pull_pool;   ///< spoofed pull-request frames
};
Inputs make_inputs(const Workload& w, std::uint64_t seed, std::size_t messages);

/// Receivers whose delivery latency is reported as victim latency: ids
/// 1..n/4 (alpha = 0.25), flooded on `flood` and unattacked elsewhere.
inline std::size_t victim_count(const Workload& w) { return w.nodes / 4; }
inline bool is_victim(const Workload& w, std::uint32_t id) {
  return id >= 1 && id <= victim_count(w);
}

// ---- delivery bookkeeping and output checks --------------------------------

/// Records when each (message, receiver) pair was delivered and checks every
/// delivery against what the source sent. Written from runtime threads.
class Recorder {
 public:
  Recorder(const Inputs& in, std::size_t nodes);

  void on_delivery(std::uint32_t node, const core::Node::Delivery& d);

  [[nodiscard]] std::int64_t delivered_at_ns(std::size_t seq,
                                             std::size_t node) const {
    return at_[seq * nodes_ + node].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_.load(); }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_.load(); }

  static constexpr std::int64_t kNever = -1;

 private:
  const Inputs& in_;
  std::size_t nodes_;
  std::vector<std::atomic<std::int64_t>> at_;
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

// ---- the hosted group ------------------------------------------------------

struct SetupTimes {
  double identities_s = 0;
  double nodes_s = 0;
  double prewarm_s = 0;
  double start_s = 0;
  [[nodiscard]] double total() const {
    return identities_s + nodes_s + prewarm_s + start_s;
  }
};

class TracedNet;  // tracing.hpp

/// Identities, directory, transports and nodes of one set-up. With a
/// TracedNet, every node's transport is wrapped in the timing decorator.
class Group {
 public:
  Group(const Workload& w, std::uint64_t seed, Recorder& rec,
        TracedNet* traced, SetupTimes& times);
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] core::Node& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] const std::vector<core::Peer>& directory() const {
    return *directory_;
  }

 private:
  std::unique_ptr<net::MemNetwork> mem_;
  std::shared_ptr<const std::vector<core::Peer>> directory_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  // After transports_: nodes unbind their sockets before the transports go.
  std::vector<std::unique_ptr<core::Node>> nodes_;
};

/// First UDP port of the group's well-known port block.
inline constexpr std::uint16_t kUdpBasePort = 24000;

// ---- threads and CPU -------------------------------------------------------

/// Thread ids of this process, from /proc/self/task.
std::vector<pid_t> list_threads();
/// CPU seconds a thread of this process has used so far (ns resolution
/// through its per-thread CPU clock; /proc stat ticks as a fallback).
double thread_cpu_s(pid_t tid);
/// CPU seconds of the calling thread.
double self_cpu_s();
/// VmHWM of this process in MiB.
double peak_rss_mb();

inline std::int64_t steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace drumbench

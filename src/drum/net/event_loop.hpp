// drum::net::EventLoop — the readiness reactor under the real-time runtime
// (DESIGN.md §8).
//
// One loop multiplexes three event kinds:
//  * fd sockets (UdpSocket): registered with epoll, edge-triggered — each
//    arriving datagram re-arms the event, so backlog a node leaves unread
//    does not spin the loop (a socket whose budget is spent for the round
//    is removed outright until the round tick, DESIGN.md §8);
//  * fd-less sockets (MemSocket): a readiness bridge — the socket's
//    set_ready_callback() queues the source on the loop from the sender's
//    thread;
//  * timers: a deadline-ordered queue backed by one timerfd armed to the
//    earliest deadline (absolute CLOCK_MONOTONIC, so no drift accumulates).
//
// Wake rule: the loop blocks in epoll_wait only with nothing queued, and
// marks itself parked under mu_ first. Whoever queues a source (the bridge,
// or add_socket's catch-up) writes the eventfd only when it finds the loop
// parked, and clears the mark; a loop that is running finds the queue on its
// next iteration and polls instead of blocking. So one wakeup costs one
// eventfd write, however many senders raced to deliver it.
//
// Threading contract: run() executes on exactly one thread and all event
// callbacks are invoked there, serially. Registration (add_socket /
// remove_socket / add_timer / cancel_timer / stop) is thread-safe and may be
// called from callbacks. Callbacks are invoked with no loop lock held; a
// callback may fire once after its source was removed (the event was already
// in flight) — callers' callback targets must tolerate that or outlive the
// loop. The locking discipline is compiler-enforced: mu_ is a check::Mutex
// capability and every field it protects carries DRUM_GUARDED_BY (see
// drum/check/annotations.hpp, DESIGN.md §11).
//
// Telemetry (set_registry, written by the loop thread only): "loop.wakeups",
// "loop.fd_events", "loop.mem_ready", "loop.timers_fired" counters and the
// "loop.timer_slop_us" histogram (how late each timer fired vs its
// deadline).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/net/transport.hpp"
#include "drum/obs/metrics.hpp"

namespace drum::net {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  using SourceId = std::uint64_t;
  using TimerId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a socket for readiness dispatch: `on_ready` runs on the loop
  /// thread whenever the socket (may) have datagrams to read. Spurious
  /// invocations are possible; the callback drains with recv()/recv_batch()
  /// until empty. The socket must stay alive until remove_socket().
  SourceId add_socket(Socket& sock, Callback on_ready);
  /// Unregisters; the socket may be destroyed afterwards. Idempotent.
  void remove_socket(SourceId id);

  /// One-shot timer at an absolute deadline; re-arm from the callback for
  /// periodic behavior (compute the next deadline from the previous one, not
  /// from now — that is what keeps tick intervals drift-free).
  TimerId add_timer(Clock::time_point deadline, Callback fn);
  TimerId add_timer_in(Clock::duration delay, Callback fn) {
    return add_timer(Clock::now() + delay, std::move(fn));
  }
  /// Best-effort: a timer already being dispatched is not recalled.
  void cancel_timer(TimerId id);

  /// Installs a callback the loop thread invokes at the END of every
  /// iteration, after socket readiness and timers have all been dispatched.
  /// Call only while the loop is not running (same rule as set_registry);
  /// pass nullptr to detach. The sharded reactor runs its shard's ready list
  /// here, so per-cycle work is batched across everything the iteration
  /// produced.
  void set_cycle_callback(Callback fn);

  /// Blocks, dispatching events until stop(). Call from exactly one thread.
  /// A stop() issued before run() is entered still takes effect (the request
  /// is sticky): run() returns immediately. Reuse after a stop requires
  /// reset().
  void run();
  /// Thread-safe; run() returns after the current iteration. Sticky: also
  /// stops a run() that has not started yet.
  void stop();
  /// Clears a prior stop request so the loop can run() again. Call only
  /// when no run() is active and no concurrent stop() can target the
  /// upcoming run (e.g. under the owner's lifecycle lock, before spawning
  /// the loop thread).
  void reset() { stop_requested_.store(false); }
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Attaches loop telemetry (nullptr detaches). Call before run(); the
  /// registry must outlive the loop and is written by the loop thread only.
  void set_registry(obs::MetricsRegistry* registry);

 private:
  struct Source {
    Socket* sock = nullptr;
    int fd = -1;                ///< -1: fd-less, uses the readiness bridge
    Callback on_ready;
    bool ready_pending = false; ///< already in mem_ready_
  };

  void notify_source(SourceId id);  // mem bridge, any thread
  /// Queues `src` for dispatch on the next iteration. True when the loop is
  /// parked and so owes one eventfd write, which the caller makes after
  /// releasing mu_.
  bool queue_ready(Source& src, SourceId id) DRUM_REQUIRES(mu_);
  /// One eventfd write: epoll_wait returns even if no fd is ready.
  void wake();
  void arm_timerfd() DRUM_REQUIRES(mu_);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;   ///< eventfd: stop, and readiness queued while parked
  int timer_fd_ = -1;  ///< timerfd armed to the earliest deadline

  check::Mutex mu_;
  std::uint64_t next_id_ DRUM_GUARDED_BY(mu_) = 2;  // 0/1 = fd sentinels
  std::unordered_map<SourceId, Source> sources_ DRUM_GUARDED_BY(mu_);
  std::vector<SourceId> mem_ready_ DRUM_GUARDED_BY(mu_);
  /// Set just before run() blocks in epoll_wait with mem_ready_ empty;
  /// cleared by the drain after it returns and by the first queue_ready().
  bool parked_ DRUM_GUARDED_BY(mu_) = false;
  struct Timer {
    TimerId id;
    Callback fn;
  };
  std::multimap<Clock::time_point, Timer> timers_ DRUM_GUARDED_BY(mu_);
  std::unordered_map<TimerId, std::multimap<Clock::time_point, Timer>::iterator>
      timer_index_ DRUM_GUARDED_BY(mu_);
  Clock::time_point armed_deadline_ DRUM_GUARDED_BY(mu_) =
      Clock::time_point::max();

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Set before run(), invoked by the loop thread only (like registry_).
  Callback cycle_cb_;

  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* m_wakeups_ = nullptr;
  obs::Counter* m_fd_events_ = nullptr;
  obs::Counter* m_mem_ready_ = nullptr;
  obs::Counter* m_timers_fired_ = nullptr;
  obs::Histogram* m_timer_slop_us_ = nullptr;
};

}  // namespace drum::net

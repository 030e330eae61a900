#include "drum/net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "drum/check/check.hpp"
#include "drum/util/log.hpp"

namespace drum::net {

namespace {
// epoll_event.data.u64 sentinels for the loop's own fds; real sources start
// at 2 (next_id_).
constexpr std::uint64_t kWakeSentinel = 0;
constexpr std::uint64_t kTimerSentinel = 1;

timespec to_timespec(EventLoop::Clock::time_point tp) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                tp.time_since_epoch())
                .count();
  timespec ts{};
  ts.tv_sec = ns / 1'000'000'000;
  ts.tv_nsec = ns % 1'000'000'000;
  return ts;
}
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  // steady_clock is CLOCK_MONOTONIC on Linux/libstdc++; the timerfd is armed
  // with absolute steady_clock deadlines below.
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  DRUM_REQUIRE(epoll_fd_ >= 0 && wake_fd_ >= 0 && timer_fd_ >= 0,
               "EventLoop: failed to create epoll/eventfd/timerfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeSentinel;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.u64 = kTimerSentinel;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
}

EventLoop::~EventLoop() {
  DRUM_ASSERT(!running_.load(), "EventLoop destroyed while running");
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::set_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (!registry) {
    m_wakeups_ = m_fd_events_ = m_mem_ready_ = m_timers_fired_ = nullptr;
    m_timer_slop_us_ = nullptr;
    return;
  }
  m_wakeups_ = &registry->counter("loop.wakeups");
  m_fd_events_ = &registry->counter("loop.fd_events");
  m_mem_ready_ = &registry->counter("loop.mem_ready");
  m_timers_fired_ = &registry->counter("loop.timers_fired");
  m_timer_slop_us_ = &registry->histogram("loop.timer_slop_us");
}

void EventLoop::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::set_cycle_callback(Callback fn) {
  DRUM_REQUIRE(!running_.load(),
               "set_cycle_callback while the loop is running");
  cycle_cb_ = std::move(fn);
}

EventLoop::SourceId EventLoop::add_socket(Socket& sock, Callback on_ready) {
  DRUM_REQUIRE(on_ready != nullptr, "add_socket requires a callback");
  const bool has_fd = sock.native_handle() >= 0;
  SourceId id = 0;
  bool wake_now = false;
  {
    check::MutexLock lock(mu_);
    id = next_id_++;
    Source& src = sources_[id];
    src.sock = &sock;
    src.fd = sock.native_handle();
    src.on_ready = std::move(on_ready);
    if (has_fd) {
      epoll_event ev{};
      // Edge-triggered: each datagram arrival re-arms the event (UDP's
      // sk_data_ready fires per packet), so stale unread backlog does not
      // busy-spin the loop. New arrivals still fire, so a flood keeps
      // waking its victim; the runtime removes a socket whose channel has
      // spent its round budget and adds it back at the round tick.
      ev.events = EPOLLIN | EPOLLET;
      ev.data.u64 = id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sock.native_handle(), &ev) !=
          0) {
        DRUM_DEBUG << "EventLoop: epoll_ctl ADD failed: "
                   << std::strerror(errno);
      }
      // The fd may already hold datagrams that arrived before registration;
      // ET would never report them. Queue one initial dispatch.
      wake_now = queue_ready(src, id);
    }
  }
  if (wake_now) wake();
  if (!has_fd) {
    // The bridge: queued from whatever thread delivers. Installed outside
    // mu_ — set_ready_callback takes the transport's own lock.
    sock.set_ready_callback([this, id] { notify_source(id); });
    // Same catch-up for datagrams delivered before the bridge attached.
    notify_source(id);
  }
  return id;
}

void EventLoop::remove_socket(SourceId id) {
  Socket* detach = nullptr;
  {
    check::MutexLock lock(mu_);
    auto it = sources_.find(id);
    if (it == sources_.end()) return;
    if (it->second.fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    } else {
      detach = it->second.sock;
    }
    sources_.erase(it);
  }
  // Outside the lock: set_ready_callback takes the transport's own lock.
  if (detach) detach->set_ready_callback(nullptr);
}

void EventLoop::notify_source(SourceId id) {
  bool wake_now = false;
  {
    check::MutexLock lock(mu_);
    auto it = sources_.find(id);
    if (it == sources_.end()) return;
    wake_now = queue_ready(it->second, id);
  }
  if (wake_now) wake();
}

bool EventLoop::queue_ready(Source& src, SourceId id) {
  if (src.ready_pending) return false;
  src.ready_pending = true;
  mem_ready_.push_back(id);
  // A running loop polls while mem_ready_ is non-empty; only a parked one
  // needs the eventfd, and only the first notifier writes it.
  return std::exchange(parked_, false);
}

void EventLoop::arm_timerfd() {
  Clock::time_point earliest =
      timers_.empty() ? Clock::time_point::max() : timers_.begin()->first;
  if (earliest == armed_deadline_) return;
  armed_deadline_ = earliest;
  itimerspec spec{};
  if (earliest != Clock::time_point::max()) {
    spec.it_value = to_timespec(earliest);
    // A deadline already in the past must still fire: timerfd treats an
    // all-zero it_value as "disarm", so round up to 1 ns.
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

EventLoop::TimerId EventLoop::add_timer(Clock::time_point deadline,
                                        Callback fn) {
  DRUM_REQUIRE(fn != nullptr, "add_timer requires a callback");
  check::MutexLock lock(mu_);
  TimerId id = next_id_++;
  auto it = timers_.emplace(deadline, Timer{id, std::move(fn)});
  timer_index_.emplace(id, it);
  arm_timerfd();
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  check::MutexLock lock(mu_);
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return;
  timers_.erase(it->second);
  timer_index_.erase(it);
  arm_timerfd();
}

void EventLoop::stop() {
  stop_requested_.store(true);
  wake();
}

void EventLoop::run() {
  DRUM_REQUIRE(!running_.exchange(true), "EventLoop::run() re-entered");
  // NOTE: stop_requested_ is deliberately NOT cleared here. stop() may land
  // before the spawned loop thread reaches run(); clearing would lose that
  // request and leave the stopper joining forever. Callers reusing a loop
  // after stop() call reset() first, at a point where no concurrent stop()
  // can target the new run.
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::vector<Callback> ready_cbs;   // drained per iteration, reused
  std::vector<Timer> due_timers;

  while (!stop_requested_.load()) {
    int timeout_ms = 0;
    {
      check::MutexLock lock(mu_);
      // Block only with nothing queued. From here until the drain below, a
      // notifier that queues a source finds parked_ set and writes the
      // eventfd; one that came first left mem_ready_ non-empty, so we poll.
      parked_ = mem_ready_.empty();
      if (parked_) timeout_ms = -1;
    }
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      DRUM_DEBUG << "EventLoop: epoll_wait failed: " << std::strerror(errno);
      break;
    }
    if (m_wakeups_) m_wakeups_->inc();

    bool timer_expired = false;
    ready_cbs.clear();
    {
      check::MutexLock lock(mu_);
      parked_ = false;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kWakeSentinel) {
          std::uint64_t drain = 0;
          [[maybe_unused]] ssize_t r =
              ::read(wake_fd_, &drain, sizeof drain);
        } else if (tag == kTimerSentinel) {
          std::uint64_t expirations = 0;
          [[maybe_unused]] ssize_t r =
              ::read(timer_fd_, &expirations, sizeof expirations);
          timer_expired = true;
        } else {
          auto it = sources_.find(tag);
          if (it != sources_.end()) {
            ready_cbs.push_back(it->second.on_ready);
            if (m_fd_events_) m_fd_events_->inc();
          }
        }
      }
      // Bridge-flagged sources (MemSocket deliveries + fd catch-ups).
      for (SourceId id : mem_ready_) {
        auto it = sources_.find(id);
        if (it == sources_.end()) continue;
        it->second.ready_pending = false;
        ready_cbs.push_back(it->second.on_ready);
        if (m_mem_ready_) m_mem_ready_->inc();
      }
      mem_ready_.clear();
    }

    for (auto& cb : ready_cbs) cb();

    // Fire every timer whose deadline has passed — even if the timerfd did
    // not tick this iteration (a long callback above may have run us past
    // the next deadline).
    (void)timer_expired;
    due_timers.clear();
    auto now = Clock::now();
    {
      check::MutexLock lock(mu_);
      while (!timers_.empty() && timers_.begin()->first <= now) {
        auto it = timers_.begin();
        if (m_timer_slop_us_) {
          auto slop = std::chrono::duration_cast<std::chrono::microseconds>(
                          now - it->first)
                          .count();
          m_timer_slop_us_->record(static_cast<std::uint64_t>(slop));
        }
        due_timers.push_back(std::move(it->second));
        timer_index_.erase(due_timers.back().id);
        timers_.erase(it);
      }
      arm_timerfd();
    }
    for (auto& t : due_timers) {
      if (m_timers_fired_) m_timers_fired_->inc();
      t.fn();
    }

    // End-of-iteration hook: everything the cycle produced (ready sockets,
    // due timers) has been dispatched; the owner can now run its
    // batched per-cycle work (the sharded reactor's drain-verify-ingest
    // pass) exactly once per wakeup.
    if (cycle_cb_) cycle_cb_();
  }
  running_.store(false);
}

}  // namespace drum::net

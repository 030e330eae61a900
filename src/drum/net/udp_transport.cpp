#include "drum/net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <vector>

#include "drum/util/log.hpp"

namespace drum::net {

std::uint32_t parse_ipv4(const char* dotted) {
  in_addr a{};
  if (inet_pton(AF_INET, dotted, &a) != 1) return 0;
  return ntohl(a.s_addr);
}

namespace {

sockaddr_in make_sockaddr(const Address& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(a.port);
  sa.sin_addr.s_addr = htonl(a.host);
  return sa;
}

// Instrumentation handles shared by all sockets of one transport; null
// members mean "not attached".
struct UdpMetrics {
  obs::Counter* sent = nullptr;
  obs::Counter* recv = nullptr;
  obs::Counter* send_errors = nullptr;
  obs::Histogram* rx_backlog_bytes = nullptr;
};

// recvmmsg/sendmmsg slot counts. Receive buffers must hold a full datagram
// (65535 bytes) or the kernel truncates it, so the receive scratch is heavy
// (kRecvSlots * 64 KiB) and therefore thread_local: all sockets polled on a
// thread share one copy instead of paying ~1 MiB each across a 512-node
// swarm.
constexpr std::size_t kRecvSlots = 16;
constexpr std::size_t kRecvBufSize = 65536;
constexpr std::size_t kSendSlots = 64;
// discard() copies nothing, so one call can take many more datagrams.
constexpr std::size_t kDiscardSlots = 256;

struct RecvScratch {
  std::vector<std::uint8_t> buf =
      std::vector<std::uint8_t>(kRecvSlots * kRecvBufSize);
  std::array<mmsghdr, kRecvSlots> msgs{};
  std::array<iovec, kRecvSlots> iovs{};
  std::array<sockaddr_in, kRecvSlots> froms{};
};

class UdpSocket final : public Socket {
 public:
  UdpSocket(int fd, Address local, UdpMetrics metrics)
      : fd_(fd), local_(local), m_(metrics) {}
  ~UdpSocket() override {
    if (fd_ >= 0) ::close(fd_);
  }
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::optional<Datagram> recv() override {
    std::array<std::uint8_t, 65536> buf;
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    ssize_t r = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (r < 0) return std::nullopt;  // EAGAIN or error: nothing to read
    if (m_.recv) {
      m_.recv->inc();
      record_backlog();
    }
    Datagram d;
    d.from.host = ntohl(from.sin_addr.s_addr);
    d.from.port = ntohs(from.sin_port);
    d.payload.assign(buf.data(), buf.data() + r);
    return d;
  }

  std::size_t recv_batch(Datagram* out, std::size_t max) override {
    static thread_local RecvScratch s;
    std::size_t total = 0;
    while (total < max) {
      const auto want = static_cast<unsigned>(
          std::min(kRecvSlots, max - total));
      for (unsigned i = 0; i < want; ++i) {
        s.iovs[i] = {s.buf.data() + i * kRecvBufSize, kRecvBufSize};
        s.msgs[i] = {};
        s.msgs[i].msg_hdr.msg_iov = &s.iovs[i];
        s.msgs[i].msg_hdr.msg_iovlen = 1;
        s.msgs[i].msg_hdr.msg_name = &s.froms[i];
        s.msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      }
      int n = ::recvmmsg(fd_, s.msgs.data(), want, 0, nullptr);
      if (n <= 0) break;  // EAGAIN or error: queue drained
      for (int i = 0; i < n; ++i) {
        Datagram& d = out[total++];
        d.from.host = ntohl(s.froms[i].sin_addr.s_addr);
        d.from.port = ntohs(s.froms[i].sin_port);
        const std::uint8_t* base = s.buf.data() + i * kRecvBufSize;
        d.payload.assign(base, base + s.msgs[i].msg_len);
      }
      if (m_.recv) m_.recv->inc(static_cast<std::uint64_t>(n));
      if (static_cast<unsigned>(n) < want) break;  // queue drained
    }
    if (total && m_.recv) record_backlog();
    return total;
  }

  std::size_t discard() override {
    // Zeroed headers: an empty iovec array and no source address, so the
    // kernel dequeues each datagram and copies none of it. It writes back
    // only msg_len and the flags, so the headers are never rebuilt.
    static thread_local std::array<mmsghdr, kDiscardSlots> msgs{};
    std::size_t total = 0;
    while (true) {
      int n = ::recvmmsg(fd_, msgs.data(), kDiscardSlots, MSG_TRUNC, nullptr);
      if (n <= 0) return total;  // EAGAIN or error: queue drained
      total += static_cast<std::size_t>(n);
      if (m_.recv) m_.recv->inc(static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < kDiscardSlots) return total;
    }
  }

  void send(const Address& to, util::ByteSpan payload) override {
    sockaddr_in sa = make_sockaddr(to);
    ssize_t r = ::sendto(fd_, payload.data(), payload.size(), 0,
                         reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
    if (r < 0) {
      if (m_.send_errors) m_.send_errors->inc();
      if (errno != EAGAIN && errno != ECONNREFUSED) {
        DRUM_DEBUG << "udp send to " << to_string(to)
                   << " failed: " << std::strerror(errno);
      }
    } else if (m_.sent) {
      m_.sent->inc();
    }
  }

  void send_batch(const Address& to, const util::ByteSpan* payloads,
                  std::size_t count) override {
    sockaddr_in sa = make_sockaddr(to);
    std::array<mmsghdr, kSendSlots> msgs{};
    std::array<iovec, kSendSlots> iovs{};
    std::size_t i = 0;
    while (i < count) {
      const auto batch = static_cast<unsigned>(
          std::min(kSendSlots, count - i));
      for (unsigned k = 0; k < batch; ++k) {
        const util::ByteSpan& p = payloads[i + k];
        // sendmmsg never writes through msg_iov; the const_cast is the
        // API's, not ours.
        iovs[k] = {const_cast<std::uint8_t*>(p.data()), p.size()};
        msgs[k] = {};
        msgs[k].msg_hdr.msg_iov = &iovs[k];
        msgs[k].msg_hdr.msg_iovlen = 1;
        msgs[k].msg_hdr.msg_name = &sa;
        msgs[k].msg_hdr.msg_namelen = sizeof sa;
      }
      int sent = ::sendmmsg(fd_, msgs.data(), batch, 0);
      if (sent <= 0) {
        if (m_.send_errors) m_.send_errors->inc(batch);
        if (errno != EAGAIN && errno != ECONNREFUSED) {
          DRUM_DEBUG << "udp sendmmsg to " << to_string(to)
                     << " failed: " << std::strerror(errno);
        }
        return;  // remaining payloads dropped, like UDP under pressure
      }
      if (m_.sent) m_.sent->inc(static_cast<std::uint64_t>(sent));
      i += static_cast<std::size_t>(sent);
    }
  }

  void send_many(const OutboundDatagram* msgs, std::size_t count) override {
    std::array<mmsghdr, kSendSlots> hdrs{};
    std::array<iovec, kSendSlots> iovs{};
    std::array<sockaddr_in, kSendSlots> names{};
    std::size_t i = 0;
    while (i < count) {
      const auto batch = static_cast<unsigned>(
          std::min(kSendSlots, count - i));
      for (unsigned k = 0; k < batch; ++k) {
        const OutboundDatagram& m = msgs[i + k];
        names[k] = make_sockaddr(m.to);
        // sendmmsg never writes through msg_iov; the const_cast is the
        // API's, not ours.
        iovs[k] = {const_cast<std::uint8_t*>(m.payload.data()),
                   m.payload.size()};
        hdrs[k] = {};
        hdrs[k].msg_hdr.msg_iov = &iovs[k];
        hdrs[k].msg_hdr.msg_iovlen = 1;
        hdrs[k].msg_hdr.msg_name = &names[k];
        hdrs[k].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      }
      int sent = ::sendmmsg(fd_, hdrs.data(), batch, 0);
      if (sent <= 0) {
        if (m_.send_errors) m_.send_errors->inc(batch);
        if (errno != EAGAIN && errno != ECONNREFUSED) {
          DRUM_DEBUG << "udp sendmmsg (scatter) failed: "
                     << std::strerror(errno);
        }
        return;  // remaining datagrams dropped, like UDP under pressure
      }
      if (m_.sent) m_.sent->inc(static_cast<std::uint64_t>(sent));
      i += static_cast<std::size_t>(sent);
    }
  }

  [[nodiscard]] Address local() const override { return local_; }

  [[nodiscard]] int native_handle() const override { return fd_; }

 private:
  void record_backlog() {
    // Kernel receive-buffer occupancy after this read — the backlog a
    // flood keeps full (and the flush-unread pass later discards).
    int pending = 0;
    if (::ioctl(fd_, FIONREAD, &pending) == 0 && pending >= 0) {
      m_.rx_backlog_bytes->record(static_cast<std::uint64_t>(pending));
    }
  }

  int fd_;
  Address local_;
  UdpMetrics m_;
};

}  // namespace

UdpTransport::UdpTransport(std::uint32_t host) : host_(host) {}

void UdpTransport::set_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
}

BindResult UdpTransport::bind(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return BindError::kSystem;
  sockaddr_in sa = make_sockaddr(Address{host_, port});
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0) {
    int err = errno;
    ::close(fd);
    if (err == EADDRINUSE) {
      // With port 0 the kernel only fails with EADDRINUSE when the
      // ephemeral range is fully bound.
      return port == 0 ? BindError::kPortsExhausted : BindError::kPortTaken;
    }
    return BindError::kSystem;
  }
  // Discover the actual port (for port = 0, the kernel picked one — this is
  // Drum's random-port primitive on the real network).
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return BindError::kSystem;
  }
  Address local{host_, ntohs(bound.sin_port)};
  UdpMetrics metrics;
  if (registry_) {
    metrics.sent = &registry_->counter("net.udp.sent");
    metrics.recv = &registry_->counter("net.udp.recv");
    metrics.send_errors = &registry_->counter("net.udp.send_errors");
    metrics.rx_backlog_bytes =
        &registry_->histogram("net.udp.rx_backlog_bytes");
  }
  return std::make_unique<UdpSocket>(fd, local, metrics);
}

}  // namespace drum::net

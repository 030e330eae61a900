// Real UDP sockets (IPv4). Substitutes for the paper's 100 Mbit Emulab LAN:
// all processes run on this machine, each node binding its own set of
// loopback UDP ports. Sockets are non-blocking; a poll loop or the epoll
// EventLoop drains them (UdpSocket exposes its fd via native_handle()). The
// OS socket buffer plays the bounded-receive-queue role that a flood fills.
// recv_batch()/send_batch() use recvmmsg/sendmmsg so victims drain and the
// attack generator sprays at line rate, one syscall per batch.
#pragma once

#include <cstdint>
#include <memory>

#include "drum/net/transport.hpp"
#include "drum/obs/metrics.hpp"

namespace drum::net {

/// Parses dotted-quad into host byte order (e.g. "127.0.0.1").
std::uint32_t parse_ipv4(const char* dotted);

class UdpTransport final : public Transport {
 public:
  /// All sockets bind on `host` (default loopback).
  explicit UdpTransport(std::uint32_t host = parse_ipv4("127.0.0.1"));

  BindResult bind(std::uint16_t port) override;
  [[nodiscard]] std::uint32_t host() const override { return host_; }

  /// Attaches a metrics registry (nullptr detaches); applies to sockets
  /// bound afterwards. Records "net.udp.sent" / "net.udp.recv" /
  /// "net.udp.send_errors" counters and the "net.udp.rx_backlog_bytes"
  /// histogram — the OS receive-buffer occupancy (FIONREAD) left after each
  /// read, i.e. the kernel-queue backlog a flood builds. Same ownership and
  /// threading contract as the sockets themselves (one polling thread).
  void set_registry(obs::MetricsRegistry* registry);

 private:
  std::uint32_t host_;
  obs::MetricsRegistry* registry_ = nullptr;
};

}  // namespace drum::net

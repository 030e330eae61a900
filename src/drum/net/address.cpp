#include "drum/net/transport.hpp"

#include <cstdio>

namespace drum::net {

std::string to_string(const Address& a) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u:%u", (a.host >> 24) & 0xFF,
                (a.host >> 16) & 0xFF, (a.host >> 8) & 0xFF, a.host & 0xFF,
                a.port);
  return buf;
}

const char* to_string(BindError e) {
  switch (e) {
    case BindError::kNone: return "ok";
    case BindError::kPortTaken: return "port taken";
    case BindError::kPortsExhausted: return "ephemeral ports exhausted";
    case BindError::kSystem: return "system error";
  }
  return "unknown bind error";
}

std::size_t Socket::recv_batch(Datagram* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    auto d = recv();
    if (!d) break;
    out[n++] = std::move(*d);
  }
  return n;
}

std::size_t Socket::discard() {
  constexpr std::size_t kChunk = 64;
  Datagram chunk[kChunk];
  std::size_t total = 0;
  while (true) {
    const std::size_t got = recv_batch(chunk, kChunk);
    total += got;
    if (got < kChunk) return total;
  }
}

void Socket::send_batch(const Address& to, const util::ByteSpan* payloads,
                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) send(to, payloads[i]);
}

void Socket::send_many(const OutboundDatagram* msgs, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) send(msgs[i].to, msgs[i].payload);
}

}  // namespace drum::net

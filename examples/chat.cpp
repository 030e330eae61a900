// Chat over real UDP loopback sockets: N Drum nodes hosted on one
// runtime::ReactorRuntime with real-time jittered rounds; lines typed on
// stdin are multicast from node 0 and printed as every node delivers them.
//
//   ./build/examples/chat                 # interactive, 5 nodes
//   ./build/examples/chat --script true   # self-driving demo (used in CI)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "drum/check/annotations.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/util/flags.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  using namespace std::chrono_literals;
  util::Flags flags(argc, argv);
  auto n = static_cast<std::uint32_t>(flags.get_int("nodes", 5, "group size"));
  auto round_ms = flags.get_int("round-ms", 300, "round duration (ms)");
  auto base_port = static_cast<std::uint16_t>(
      flags.get_int("base-port", 26000, "first well-known UDP port"));
  bool script = flags.get_bool("script", false,
                               "non-interactive: send 3 canned lines, exit");
  flags.done();

  util::Rng rng(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));

  std::vector<crypto::Identity> identities;
  std::vector<core::Peer> directory(n);
  const std::uint32_t host = net::parse_ipv4("127.0.0.1");
  for (std::uint32_t id = 0; id < n; ++id) {
    identities.push_back(crypto::Identity::generate(rng));
    directory[id] = {id,
                     host,
                     static_cast<std::uint16_t>(base_port + 2 * id),
                     static_cast<std::uint16_t>(base_port + 2 * id + 1),
                     0,
                     identities[id].sign_public(),
                     identities[id].dh_public(),
                     true};
  }

  check::Mutex stdout_mu;
  std::atomic<int> delivered{0};
  std::vector<std::unique_ptr<net::UdpTransport>> transports;
  std::vector<std::unique_ptr<core::Node>> nodes;
  runtime::ReactorConfig rc;
  rc.round = std::chrono::milliseconds(round_ms);
  runtime::ReactorRuntime reactor(rc);
  for (std::uint32_t id = 0; id < n; ++id) {
    transports.push_back(std::make_unique<net::UdpTransport>(host));
    core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
    cfg.wk_pull_port = directory[id].wk_pull_port;
    cfg.wk_offer_port = directory[id].wk_offer_port;
    nodes.push_back(std::make_unique<core::Node>(
        cfg, identities[id], directory, *transports.back(), rng.next(),
        [id, &stdout_mu, &delivered](const core::Node::Delivery& d) {
          check::MutexLock lock(stdout_mu);
          std::printf("[node %u] <%u> %.*s   (%u rounds)\n", id,
                      d.msg.id.source, static_cast<int>(d.msg.payload.size()),
                      reinterpret_cast<const char*>(d.msg.payload.data()),
                      d.hops);
          std::fflush(stdout);
          delivered.fetch_add(1);
        }));
    reactor.add_node(*nodes.back(), rng.next());
  }
  reactor.start();

  auto say = [&](const std::string& line) {
    reactor.multicast(0, util::ByteSpan(
        reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
  };

  if (script) {
    const char* lines[] = {"hello from node 0", "gossip works over real UDP",
                           "bye"};
    for (const char* l : lines) {
      say(l);
      std::this_thread::sleep_for(std::chrono::milliseconds(round_ms * 3));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(round_ms * 6));
    reactor.stop();
    int expected = static_cast<int>(n - 1) * 3;
    std::printf("script mode: %d/%d deliveries\n", delivered.load(), expected);
    return delivered.load() >= expected ? 0 : 1;
  }

  std::printf("chat ready: %u nodes over UDP 127.0.0.1:%u+. Type lines "
              "(Ctrl-D to quit):\n", n, base_port);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty()) say(line);
  }
  reactor.stop();
  return 0;
}

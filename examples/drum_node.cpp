// drum_node — a standalone Drum process for real multi-process deployments.
//
// One OS process per group member over real UDP, as the paper deployed on
// Emulab. Two modes:
//
//  1. Generate a group (writes group.txt + per-node secret key files):
//       ./build/examples/drum_node --generate 5 --out /tmp/grp --base-port 28000
//
//  2. Run a member (in 5 separate terminals / machines):
//       ./build/examples/drum_node --id 0 --group /tmp/grp/group.txt
//           --key /tmp/grp/node0.key [--say "hello"] [--run-secs 30]
//
// Each delivered message is printed; periodic stats go to stderr. --say
// multicasts a message after startup; --rate N multicasts N random
// messages per round (workload mode).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "drum/core/groupfile.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/udp_transport.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/util/flags.hpp"

namespace {

using namespace drum;

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  return f.good();
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

int generate_group(std::size_t n, const std::string& out_dir,
                   std::uint16_t base_port, const std::string& host) {
  util::Rng rng(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  std::vector<core::Peer> dir(n);
  const std::uint32_t host_ip = net::parse_ipv4(host.c_str());
  if (host_ip == 0) {
    std::fprintf(stderr, "bad --host %s\n", host.c_str());
    return 1;
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    auto identity = crypto::Identity::generate(rng);
    dir[id].id = id;
    dir[id].host = host_ip;
    dir[id].wk_pull_port = static_cast<std::uint16_t>(base_port + 2 * id);
    dir[id].wk_offer_port = static_cast<std::uint16_t>(base_port + 2 * id + 1);
    dir[id].sign_pub = identity.sign_public();
    dir[id].dh_pub = identity.dh_public();
    auto secret = identity.serialize_secret();
    std::string key_path = out_dir + "/node" + std::to_string(id) + ".key";
    if (!write_file(key_path, util::to_hex(util::ByteSpan(secret)) + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", key_path.c_str());
      return 1;
    }
  }
  std::string group_path = out_dir + "/group.txt";
  if (!write_file(group_path, core::format_group_file(dir))) {
    std::fprintf(stderr, "cannot write %s\n", group_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %zu key files\n", group_path.c_str(), n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  auto generate = flags.get_int("generate", 0, "generate a group of this size");
  auto out = flags.get_string("out", ".", "output directory for --generate");
  auto base_port = static_cast<std::uint16_t>(
      flags.get_int("base-port", 28000, "first well-known port (--generate)"));
  auto host = flags.get_string("host", "127.0.0.1", "member host (--generate)");

  auto id = static_cast<std::uint32_t>(flags.get_int("id", 0, "member id"));
  auto group_path = flags.get_string("group", "group.txt", "group file");
  auto key_path = flags.get_string("key", "node0.key", "secret key file");
  auto round_ms = flags.get_int("round-ms", 1000, "round duration (ms)");
  auto say = flags.get_string("say", "", "multicast this once at startup");
  auto rate = static_cast<std::size_t>(
      flags.get_int("rate", 0, "workload: messages per round"));
  auto run_secs = flags.get_int("run-secs", 0, "exit after this long (0 = run "
                                               "until stdin closes)");
  flags.done();

  if (generate > 0) {
    return generate_group(static_cast<std::size_t>(generate), out, base_port,
                          host);
  }

  auto group_text = read_file(group_path);
  if (!group_text) {
    std::fprintf(stderr, "cannot read group file %s\n", group_path.c_str());
    return 1;
  }
  std::string err;
  auto dir = core::parse_group_file(*group_text, &err);
  if (!dir) {
    std::fprintf(stderr, "bad group file: %s\n", err.c_str());
    return 1;
  }
  auto key_hex = read_file(key_path);
  if (!key_hex) {
    std::fprintf(stderr, "cannot read key file %s\n", key_path.c_str());
    return 1;
  }
  while (!key_hex->empty() && (key_hex->back() == '\n' || key_hex->back() == '\r')) {
    key_hex->pop_back();
  }
  auto secret = util::from_hex(*key_hex);
  if (!secret) {
    std::fprintf(stderr, "key file is not hex\n");
    return 1;
  }
  auto identity = crypto::Identity::deserialize_secret(util::ByteSpan(*secret));
  if (!identity) {
    std::fprintf(stderr, "malformed secret key\n");
    return 1;
  }
  if (id >= dir->size() || !(*dir)[id].present) {
    std::fprintf(stderr, "id %u not in group file\n", id);
    return 1;
  }
  if (identity->sign_public() != (*dir)[id].sign_pub) {
    std::fprintf(stderr, "key file does not match group entry for id %u\n",
                 id);
    return 1;
  }

  net::UdpTransport transport((*dir)[id].host);
  core::NodeConfig cfg = core::make_node_config(core::Variant::kDrum, id);
  cfg.wk_pull_port = (*dir)[id].wk_pull_port;
  cfg.wk_offer_port = (*dir)[id].wk_offer_port;
  // A restart under the same id must not reuse the last run's seqnos: peers
  // would take its new messages for ones they have already seen.
  cfg.first_seqno = core::wall_clock_first_seqno();
  util::Rng rng(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()) ^ id);
  core::Node node(cfg, *identity, *dir, transport, rng.next(),
                  [id](const core::Node::Delivery& d) {
                    std::printf("[%u] <%u:%llu> %.*s (%u rounds)\n", id,
                                d.msg.id.source,
                                static_cast<unsigned long long>(
                                    d.msg.id.seqno),
                                static_cast<int>(d.msg.payload.size()),
                                reinterpret_cast<const char*>(
                                    d.msg.payload.data()),
                                d.hops);
                    std::fflush(stdout);
                  });
  runtime::ReactorConfig rc;
  rc.round = std::chrono::milliseconds(round_ms);
  runtime::ReactorRuntime reactor(rc);
  const auto self = reactor.add_node(node, rng.next());
  reactor.start();
  std::fprintf(stderr, "node %u up: pull port %u, offer port %u, round %lld "
                       "ms\n",
               id, cfg.wk_pull_port, cfg.wk_offer_port,
               static_cast<long long>(round_ms));

  if (!say.empty()) {
    reactor.multicast(self, util::ByteSpan(
        reinterpret_cast<const std::uint8_t*>(say.data()), say.size()));
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(run_secs);
  util::Rng payload_rng(id + 777);
  while (true) {
    if (run_secs > 0) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      if (rate > 0) {
        for (std::size_t i = 0; i < rate; ++i) {
          util::Bytes payload(50);
          for (auto& b : payload) {
            b = static_cast<std::uint8_t>(payload_rng.below(256));
          }
          reactor.multicast(self, util::ByteSpan(payload));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(round_ms));
    } else {
      std::string line;
      if (!std::getline(std::cin, line)) break;
      if (!line.empty()) {
        reactor.multicast(self, util::ByteSpan(
            reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
      }
    }
  }
  reactor.stop();
  reactor.with_node(self, [](core::Node& n) {
    const auto& reg = n.registry();
    auto c = [&](const char* name) {
      return static_cast<unsigned long long>(reg.counter_value(name));
    };
    std::fprintf(stderr,
                 "stats: rounds=%llu delivered=%llu dups=%llu read=%llu "
                 "flushed=%llu decode_err=%llu box_fail=%llu\n",
                 c("node.rounds"), c("node.delivered"), c("node.duplicates"),
                 c("node.datagrams_read"), c("node.flushed_unread"),
                 c("node.decode_errors"), c("node.box_failures"));
  });
  return 0;
}

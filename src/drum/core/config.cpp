#include "drum/core/config.hpp"

#include <chrono>

namespace drum::core {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kDrum: return "drum";
    case Variant::kPush: return "push";
    case Variant::kPull: return "pull";
    case Variant::kDrumWkPorts: return "drum-wk-ports";
    case Variant::kDrumSharedBounds: return "drum-shared-bounds";
  }
  return "?";
}

NodeConfig make_node_config(Variant v, std::uint32_t id, std::size_t fanout) {
  NodeConfig cfg;
  cfg.id = id;
  cfg.variant = v;
  cfg.fanout = fanout;
  // The paper's resource-bound convention: a process accepts messages from
  // at most F others per round; Drum splits this F/2 + F/2 via the derived
  // budget helpers. Offer budget tracks the push view size.
  cfg.max_offers_per_round = cfg.view_push() == 0 ? 0 : cfg.view_push();
  cfg.send_capacity = fanout;
  return cfg;
}

std::uint64_t wall_clock_first_seqno() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace drum::core

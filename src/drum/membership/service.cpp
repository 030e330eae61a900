#include "drum/membership/service.hpp"

namespace drum::membership {

namespace {
// Magic prefix distinguishing membership events from application payloads.
constexpr std::uint8_t kMagic[4] = {0xD2, 'M', 'B', 'R'};
}  // namespace

MembershipService::MembershipService(crypto::Ed25519PublicKey ca_pub,
                                     core::Node& node, std::int64_t now)
    : ca_pub_(ca_pub), node_(node), table_(ca_pub), now_(now) {
  // §10 piggybacking, receive side: authenticate unknown sources by their
  // attached CA-signed certificates. Runs inside the node's delivery path,
  // so it must not call back into node_ (only the table is touched; the
  // node admits the peer itself and the next directory refresh agrees).
  node_.set_cert_validator(
      [this](util::ByteSpan cert_bytes) -> std::optional<core::Peer> {
        try {
          const Certificate cert = Certificate::decode(cert_bytes);
          // A copy of the stored certificate needs no second signature
          // check; any other must verify to replace it (seed_roster).
          const Certificate* known = table_.find(cert.member_id, now_);
          if (!known || *known != cert) {
            table_.seed_roster({cert}, now_);
            known = table_.find(cert.member_id, now_);
          }
          // Keys come only from the table: a forged certificate for a
          // member admits the member's verified keys, under which the
          // forger's port box fails.
          if (!known) return std::nullopt;  // forged, expired or revoked
          return known->to_peer();
        } catch (const util::DecodeError&) {
          return std::nullopt;
        }
      });
}

util::Bytes MembershipService::wrap(const MembershipEvent& event) {
  util::Bytes out(std::begin(kMagic), std::end(kMagic));
  auto enc = event.encode();
  out.insert(out.end(), enc.begin(), enc.end());
  return out;
}

void MembershipService::bootstrap(const std::vector<Certificate>& roster) {
  table_.seed_roster(roster, now_);
  for (const auto& cert : roster) {
    if (cert.member_id != node_.config().id) {
      fd_.track(cert.member_id, node_.round());
    }
  }
  refresh_directory();
}

bool MembershipService::handle_delivery(const core::Node::Delivery& delivery) {
  fd_.heard_from(delivery.msg.id.source, node_.round());
  const auto& p = delivery.msg.payload;
  if (p.size() < sizeof kMagic ||
      !std::equal(std::begin(kMagic), std::end(kMagic), p.begin())) {
    return false;  // application data
  }
  try {
    auto event = MembershipEvent::decode(
        util::ByteSpan(p.data() + sizeof kMagic, p.size() - sizeof kMagic));
    apply_event(event);
  } catch (const util::DecodeError&) {
    ++rejected_;
  }
  return true;
}

void MembershipService::apply_event(const MembershipEvent& event) {
  if (table_.apply(event, now_)) {
    ++applied_;
    if (event.type == EventType::kJoin &&
        event.member_id != node_.config().id) {
      fd_.track(event.member_id, node_.round());
    } else if (event.type != EventType::kJoin) {
      fd_.forget(event.member_id);
    }
    refresh_directory();
  } else {
    ++rejected_;  // forged, stale, or replayed event
  }
}

void MembershipService::on_round(std::int64_t now) {
  now_ = now;
  table_.prune_expired(now_);
  if (own_join_event_ && republish_interval_ > 0 &&
      node_.round() - last_republish_round_ >= republish_interval_) {
    last_republish_round_ = node_.round();
    publish(*own_join_event_);
  }
  refresh_directory();
}

void MembershipService::enable_cert_republish(
    const MembershipEvent& own_join_event, std::uint64_t interval_rounds) {
  own_join_event_ = own_join_event;
  republish_interval_ = interval_rounds;
  last_republish_round_ = 0;
  // Attach our certificate to every message we originate (§10).
  if (own_join_event.certificate) {
    node_.set_own_certificate(own_join_event.certificate->encode());
  }
  // Publish immediately: "recently joined" is exactly when re-announcement
  // matters most.
  publish(own_join_event);
}

void MembershipService::publish(const MembershipEvent& event) {
  node_.multicast(util::ByteSpan(wrap(event)));
  // Multicast does not self-deliver; apply locally as well.
  apply_event(event);
}

void MembershipService::refresh_directory() {
  auto dir = table_.directory(now_, node_.config().id);
  // Locally-suspected peers are removed from *our* gossip choices only
  // (suspicion is never propagated).
  for (auto& peer : dir) {
    if (peer.present && peer.id != node_.config().id &&
        fd_.is_suspected(peer.id, node_.round())) {
      peer.present = false;
    }
  }
  // Our own entry must stay present even before our join event arrives
  // back (or if our certificate briefly lapses between renewals).
  std::uint32_t self = node_.config().id;
  if (self < dir.size() && !dir[self].present) {
    dir[self].present = true;
    dir[self].id = self;
  }
  node_.update_peers(std::move(dir));
}

}  // namespace drum::membership

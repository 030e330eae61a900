#include "drum/crypto/keys.hpp"

#include <algorithm>

#include "drum/crypto/api.hpp"
#include "drum/crypto/hmac.hpp"

namespace drum::crypto {

Identity Identity::generate(util::Rng& rng) {
  Identity id;
  for (auto& b : id.sign_seed_) b = static_cast<std::uint8_t>(rng.below(256));
  id.sign_pub_ = ed25519_public_key(id.sign_seed_);
  for (auto& b : id.dh_secret_) b = static_cast<std::uint8_t>(rng.below(256));
  id.dh_secret_ = x25519_clamp(id.dh_secret_);
  id.dh_pub_ = x25519_base(id.dh_secret_);
  return id;
}

Ed25519Signature Identity::sign(util::ByteSpan message) const {
  return ed25519_sign(sign_seed_, sign_pub_, message);
}

namespace {

// HKDF of one X25519 shared secret into the pair key of `own` and `peer`.
// The salt is the sorted pair of public keys, so both sides derive the same
// key and distinct pairs never share keys even on (improbable) shared-
// secret collisions.
util::Bytes pair_key_from_shared(const X25519Key& shared, const X25519Key& own,
                                 const X25519Key& peer) {
  const bool own_first = std::lexicographical_compare(
      own.begin(), own.end(), peer.begin(), peer.end());
  const auto& first = own_first ? own : peer;
  const auto& second = own_first ? peer : own;
  util::Bytes salt(first.begin(), first.end());
  salt.insert(salt.end(), second.begin(), second.end());
  return hkdf_sha256(util::ByteSpan(shared.data(), shared.size()),
                     util::ByteSpan(salt.data(), salt.size()),
                     "drum portbox pair key v1", 32);
}

}  // namespace

util::Bytes Identity::derive_pair_key(const X25519Key& peer_dh_public) const {
  return pair_key_from_shared(x25519(dh_secret_, peer_dh_public), dh_pub_,
                              peer_dh_public);
}

std::vector<util::Bytes> Identity::derive_pair_keys(
    std::span<const PairKeyRequest> requests) {
  std::vector<X25519Key> secrets, peers;
  secrets.reserve(requests.size());
  peers.reserve(requests.size());
  for (const PairKeyRequest& r : requests) {
    secrets.push_back(r.own->dh_secret_);
    peers.push_back(r.peer_dh_public);
  }
  const std::vector<X25519Key> shared = x25519_batch(secrets, peers);
  std::vector<util::Bytes> keys;
  keys.reserve(shared.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    keys.push_back(
        pair_key_from_shared(shared[i], requests[i].own->dh_pub_, peers[i]));
  }
  return keys;
}

std::vector<util::Bytes> Identity::derive_pair_keys(
    std::span<const X25519Key> peer_dh_publics) const {
  std::vector<PairKeyRequest> requests;
  requests.reserve(peer_dh_publics.size());
  for (const X25519Key& peer : peer_dh_publics) requests.push_back({this, peer});
  return derive_pair_keys(requests);
}

util::Bytes Identity::serialize_secret() const {
  util::Bytes out(sign_seed_.begin(), sign_seed_.end());
  out.insert(out.end(), dh_secret_.begin(), dh_secret_.end());
  return out;
}

std::optional<Identity> Identity::deserialize_secret(util::ByteSpan secret) {
  if (secret.size() != kEd25519SeedSize + kX25519KeySize) return std::nullopt;
  Identity id;
  std::copy(secret.begin(), secret.begin() + kEd25519SeedSize,
            id.sign_seed_.begin());
  std::copy(secret.begin() + kEd25519SeedSize, secret.end(),
            id.dh_secret_.begin());
  id.sign_pub_ = ed25519_public_key(id.sign_seed_);
  id.dh_secret_ = x25519_clamp(id.dh_secret_);
  id.dh_pub_ = x25519_base(id.dh_secret_);
  return id;
}

std::string Identity::short_id() const {
  auto digest = sha256(util::ByteSpan(sign_pub_.data(), sign_pub_.size()));
  return util::to_hex(util::ByteSpan(digest.data(), 8));
}

}  // namespace drum::crypto

#include "drum/crypto/api.hpp"

namespace drum::crypto {

Sha256::Digest sha256(util::ByteSpan data) {
  Sha256 h;
  h.update(data);
  return h.final();
}

Sha512::Digest sha512(util::ByteSpan data) {
  Sha512 h;
  h.update(data);
  return h.final();
}

}  // namespace drum::crypto

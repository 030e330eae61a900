// X25519 Diffie-Hellman (RFC 7748). Constant-time Montgomery ladder over
// GF(2^255-19). Drum uses X25519 to derive pairwise keys under which random
// port numbers are encrypted on the wire (paper §4).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "drum/util/bytes.hpp"

namespace drum::crypto {

inline constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// scalar * point (u-coordinate). RFC 7748 §5. A point of small order
/// (on the curve or its twist) gives the all-zero output.
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// x25519(scalars[i], points[i]) for every i, in order; the two spans
/// must have the same length (std::invalid_argument otherwise). The one
/// batch entry point: a caller with one scalar passes it for every point.
/// A constant-time ladder per pair, four pairs at a time where the active
/// backend carries the four-lane kernel (crypto/backend.hpp), whose lanes
/// each take their own scalar, so keys of different identities share a
/// call; and one field inversion for the whole batch (Montgomery's
/// simultaneous inversion, 3 extra multiplications per point). A
/// small-order point gets the all-zero output and leaves the other outputs
/// unchanged. x25519() is the one-point case, which always runs the scalar
/// ladder.
std::vector<X25519Key> x25519_batch(std::span<const X25519Key> scalars,
                                    std::span<const X25519Key> points);

/// scalar * base point (u = 9).
X25519Key x25519_base(const X25519Key& scalar);

/// Clamps 32 random bytes into a valid X25519 private scalar.
X25519Key x25519_clamp(X25519Key scalar);

}  // namespace drum::crypto

#include "drum/crypto/x25519.hpp"

#include "drum/crypto/fe25519.hpp"

namespace drum::crypto {

X25519Key x25519_clamp(X25519Key scalar) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
  return scalar;
}

std::vector<X25519Key> x25519_batch(const X25519Key& scalar,
                                    std::span<const X25519Key> points) {
  const X25519Key k = x25519_clamp(scalar);
  std::vector<X25519Key> out(points.size());
  if (points.empty()) return out;

  // Forward: ladder each point to (x_i : z_i), keep z_i and
  // w_i = x_i * z_0 ... z_{i-1}, and carry acc = z_0 ... z_i.
  struct Ratio {
    Fe w, z;
  };
  std::vector<Ratio> ratios(points.size());
  Fe one, zero, acc;
  fe_one(one);
  fe_zero(zero);
  for (std::size_t i = 0; i < points.size(); ++i) {
    Fe x, z;
    fe_x25519_ladder(k, points[i], x, z);
    // z = 0 exactly when the point has small order (the clamped scalar is
    // a multiple of 8, below both large prime orders), so this depends on
    // the public point alone. x * z^(p-2) is then 0; take (0 : 1), which
    // gives the same output and keeps acc invertible.
    const std::uint64_t z_is_zero = fe_is_zero(z) ? 1 : 0;
    fe_cmov(x, zero, z_is_zero);
    fe_cmov(z, one, z_is_zero);
    if (i == 0) {
      ratios[i].w = x;
      acc = z;
    } else {
      fe_mul(ratios[i].w, x, acc);
      fe_mul(acc, acc, z);
    }
    ratios[i].z = z;
  }

  // Backward: inv = (z_0 ... z_i)^-1 gives out_i = w_i * inv, and inv * z_i
  // is the next point's inverse.
  Fe inv;
  fe_invert(inv, acc);
  for (std::size_t i = points.size(); i-- > 0;) {
    Fe u;
    fe_mul(u, ratios[i].w, inv);
    fe_tobytes(out[i].data(), u);
    if (i > 0) fe_mul(inv, inv, ratios[i].z);
  }
  return out;
}

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  return x25519_batch(scalar, std::span(&point, 1)).front();
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

}  // namespace drum::crypto

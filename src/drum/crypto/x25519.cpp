#include "drum/crypto/x25519.hpp"

#include <algorithm>
#include <stdexcept>

#include "drum/crypto/backend.hpp"
#include "drum/crypto/fe25519.hpp"

namespace drum::crypto {

X25519Key x25519_clamp(X25519Key scalar) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
  return scalar;
}

namespace {

// u = 9. Also the point a group of two or three fills its spare lanes
// with: public and of large order (Z != 0) under any clamped scalar; its
// output is dropped.
constexpr X25519Key kBasePoint = {9};

}  // namespace

std::vector<X25519Key> x25519_batch(std::span<const X25519Key> scalars,
                                    std::span<const X25519Key> points) {
  if (scalars.size() != points.size()) {
    throw std::invalid_argument("x25519_batch: one scalar per point");
  }
  const std::size_t n = points.size();
  std::vector<X25519Key> out(n);
  if (n == 0) return out;
  std::vector<X25519Key> ks(n);
  std::transform(scalars.begin(), scalars.end(), ks.begin(), x25519_clamp);

  // Ladder every pair to (x_i : z_i): groups of four on the backend's
  // four-lane kernel when it has one, a group of two or three padded with
  // kBasePoint under its first scalar; a lone point, and every point
  // without the kernel, on the scalar ladder.
  std::vector<Fe> xs(n), zs(n);
  const auto ladder_x4 = active_backend().x25519_ladder_x4;
  detail::in_groups_of_four(
      n, ladder_x4 != nullptr,
      [&](std::size_t i, std::size_t lanes) {
        const std::uint8_t* k[4] = {};
        Fe u[4], x[4], z[4];
        for (std::size_t l = 0; l < 4; ++l) {
          const bool used = l < lanes;
          k[l] = ks[used ? i + l : i].data();
          fe_frombytes(u[l], (used ? points[i + l] : kBasePoint).data());
        }
        ladder_x4(k, u, x, z);
        std::copy_n(x, lanes, xs.begin() + static_cast<std::ptrdiff_t>(i));
        std::copy_n(z, lanes, zs.begin() + static_cast<std::ptrdiff_t>(i));
      },
      [&](std::size_t i) {
        fe_x25519_ladder(ks[i], points[i], xs[i], zs[i]);
      });

  // Forward: turn x_i into w_i = x_i * z_0 ... z_{i-1}, and carry
  // acc = z_0 ... z_i.
  Fe one, zero, acc;
  fe_one(one);
  fe_zero(zero);
  for (std::size_t i = 0; i < n; ++i) {
    // z = 0 exactly when the point has small order (the clamped scalar is
    // a multiple of 8, below both large prime orders), so this depends on
    // the public point alone. x * z^(p-2) is then 0; take (0 : 1), which
    // gives the same output and keeps acc invertible.
    const std::uint64_t z_is_zero = fe_is_zero(zs[i]) ? 1 : 0;
    fe_cmov(xs[i], zero, z_is_zero);
    fe_cmov(zs[i], one, z_is_zero);
    if (i == 0) {
      acc = zs[i];
    } else {
      fe_mul(xs[i], xs[i], acc);
      fe_mul(acc, acc, zs[i]);
    }
  }

  // Backward: inv = (z_0 ... z_i)^-1 gives out_i = w_i * inv, and inv * z_i
  // is the next point's inverse.
  Fe inv;
  fe_invert(inv, acc);
  for (std::size_t i = n; i-- > 0;) {
    Fe u;
    fe_mul(u, xs[i], inv);
    fe_tobytes(out[i].data(), u);
    if (i > 0) fe_mul(inv, inv, zs[i]);
  }
  return out;
}

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  return x25519_batch(std::span(&scalar, 1), std::span(&point, 1)).front();
}

X25519Key x25519_base(const X25519Key& scalar) {
  return x25519(scalar, kBasePoint);
}

}  // namespace drum::crypto

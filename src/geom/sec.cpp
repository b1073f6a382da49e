#include "geom/sec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

namespace apf::geom {
namespace {

Circle circleFrom2(Vec2 a, Vec2 b) {
  return {midpoint(a, b), dist(a, b) / 2.0};
}

/// Circumcircle of three points; falls back to the best 2-point circle when
/// the points are (nearly) collinear.
Circle circleFrom3(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 ab = b - a, ac = c - a;
  const double d = 2.0 * ab.cross(ac);
  if (std::fabs(d) < 1e-30) {
    // Collinear: the smallest circle through the extreme pair covers all.
    Circle best = circleFrom2(a, b);
    const Circle bc = circleFrom2(b, c);
    const Circle ca = circleFrom2(c, a);
    if (bc.radius > best.radius) best = bc;
    if (ca.radius > best.radius) best = ca;
    return best;
  }
  const double abn = ab.norm2(), acn = ac.norm2();
  const Vec2 center{a.x + (ac.y * abn - ab.y * acn) / d,
                    a.y + (ab.x * acn - ac.x * abn) / d};
  return {center, dist(center, a)};
}

/// A Welzl circle with its membership test: normLeq(p - center, t) for
/// the slightly enlarged radius t = r (1 + 1e-14) + 1e-14, which keeps
/// Welzl numerically stable. t, t^2 and normLeq's 1 +- 1e-12 band are
/// computed once per circle, with normLeq's own expressions, so every
/// decision is normLeq's, bit for bit.
struct Disk {
  Circle c;
  double t;
  double lo = 0.0;  ///< t^2 (1 - 1e-12): inside below it
  double hi = 0.0;  ///< t^2 (1 + 1e-12): outside above it
  bool squared;     ///< t in normLeq's squared-norm range

  explicit Disk(Circle circle)
      : c(circle),
        t(circle.radius * (1.0 + 1e-14) + 1e-14),
        squared(t >= 1e-150 && t <= 1e150) {
    if (squared) {
      const double t2 = t * t;
      lo = t2 * (1.0 - 1e-12);
      hi = t2 * (1.0 + 1e-12);
    }
  }

  bool contains(Vec2 p) const {
    const Vec2 d = p - c.center;
    if (squared) {
      const double d2 = d.x * d.x + d.y * d.y;
      if (d2 < lo) return true;
      if (d2 > hi) return false;
    }
    return d.norm() <= t;
  }
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The input indices of the points a Welzl circle was built from (see
/// secSkipping); size 0 when the circle is a single point.
struct SecBasis {
  std::size_t size = 0;
  std::array<std::size_t, 3> index{};
};

/// Welzl with p and q on the circle. `last` gets the position of the last
/// point that failed the membership test (kNone if none did): the circle
/// returned is circleFrom3(p, q, pts[last]), or circleFrom2(p, q).
Circle secWithTwo(std::span<const Vec2> pts, std::size_t end, Vec2 p, Vec2 q,
                  std::size_t& last) {
  Disk c(circleFrom2(p, q));
  last = kNone;
  for (std::size_t i = 0; i < end; ++i) {
    if (!c.contains(pts[i])) {
      c = Disk(circleFrom3(p, q, pts[i]));
      last = i;
    }
  }
  return c.c;
}

/// Welzl with p on the circle. `j` gets the position of the last failure
/// (kNone if none), `k` that of the last failure inside its secWithTwo
/// (kNone if none, or if j took the zero-radius branch): the circle
/// returned is circleFrom3(p, pts[j], pts[k]), circleFrom2(p, pts[j]) or
/// the point p.
Circle secWithOne(std::span<const Vec2> pts, std::size_t end, Vec2 p,
                  std::size_t& j, std::size_t& k) {
  Disk c(Circle{p, 0.0});
  j = k = kNone;
  for (std::size_t i = 0; i < end; ++i) {
    if (!c.contains(pts[i])) {
      if (c.c.radius == 0.0) {
        c = Disk(circleFrom2(p, pts[i]));
        k = kNone;
      } else {
        c = Disk(secWithTwo(pts, i, p, pts[i], k));
      }
      j = i;
    }
  }
  return c.c;
}

/// The Welzl shuffle for size n: the permutation std::shuffle applies under
/// the fixed seed depends only on n (its draws never look at the elements),
/// so it is built once per size per thread by shuffling indices with the
/// same engine and seed, then replayed. Element k of the shuffled sequence is
/// element order[k] of the input.
const std::vector<std::uint32_t>& shuffleOrder(std::size_t n) {
  thread_local std::vector<std::vector<std::uint32_t>> orders;
  if (orders.size() <= n) orders.resize(n + 1);
  std::vector<std::uint32_t>& order = orders[n];
  if (order.size() != n) {
    order.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      order[k] = static_cast<std::uint32_t>(k);
    }
    std::mt19937 rng(0x5ec0c13eU);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

/// Welzl over `pts` with index `skip` left out (pass pts.size() to keep
/// every point): the same circle, bit for bit, as running it over a copy
/// without that point. When `basis` is given (skip must be pts.size()),
/// it gets the input indices of the points whose failures built the
/// circle, latest in the shuffle first: the last failure of the top loop,
/// of its secWithOne and of that call's secWithTwo. Fewer than three when
/// the circle came from circleFrom2 or is a single point.
Circle secSkipping(std::span<const Vec2> pts, std::size_t skip,
                   SecBasis* basis = nullptr) {
  const std::size_t n = pts.size() - (skip < pts.size() ? 1 : 0);
  if (n == 0) return {};
  if (n == 1) return {pts[skip == 0 ? 1 : 0], 0.0};
  const auto& order = shuffleOrder(n);
  thread_local std::vector<Vec2> shuffled;
  shuffled.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    shuffled[k] = pts[j < skip ? j : j + 1];
  }

  Disk c(Circle{shuffled[0], 0.0});
  std::size_t a = kNone, j = kNone, k = kNone;
  for (std::size_t i = 1; i < n; ++i) {
    if (!c.contains(shuffled[i])) {
      c = Disk(secWithOne(shuffled, i, shuffled[i], j, k));
      a = i;
    }
  }
  if (basis && a != kNone && j != kNone) {
    basis->index[0] = order[a];
    basis->index[1] = order[j];
    basis->size = 2;
    if (k != kNone) {
      basis->index[2] = order[k];
      basis->size = 3;
    }
  }
  return c.c;
}

}  // namespace

Circle smallestEnclosingCircle(std::span<const Vec2> pts) {
  return secSkipping(pts, pts.size());
}

Circle SecCarry::of(std::span<const Vec2> pts) {
  certified_ = certify(pts);
  if (certified_) return circle_;
  SecBasis basis;
  circle_ = secSkipping(pts, pts.size(), &basis);
  n_ = pts.size();
  basisSize_ = 0;
  const double r = circle_.radius;
  if (basis.size < 2 || !(r >= kMinRadius && r <= 1e100)) return circle_;
  for (std::size_t b = 0; b < 3; ++b) {
    index_[b] = basis.index[std::min(b, basis.size - 1)];
    point_[b] = pts[index_[b]];
  }
  if (basis.size == 3) {
    for (std::size_t v = 0; v < 3; ++v) {
      const Vec2 e1 = point_[(v + 1) % 3] - point_[v];
      const Vec2 e2 = point_[(v + 2) % 3] - point_[v];
      // dot > 0 also rejects two coincident basis points (a zero edge).
      const double dot = e1.dot(e2);
      if (!(dot > 0.0 && dot >= kMinCos * e1.norm() * e2.norm())) {
        return circle_;
      }
    }
  }
  const double inner = r * (1.0 - kDepth);
  inner2_ = inner * inner;
  basisSize_ = basis.size;
  return circle_;
}

// The certificate: the carried circle C = (c, R) came from Welzl's basis B,
// the points whose failures built it (secSkipping): b1 at shuffle position
// a, the last failure of the top loop; b2 at position j < a, the last
// failure of secWithOne(a); and, for |B| = 3, b3 at k < j, the last failure
// of secWithTwo(a, j). So C = circleFrom3(b1, b2, b3) or circleFrom2(b1, b2).
// certify() returns true only when
//   (1) n is unchanged, so the shuffle is the same permutation, and B's
//       points have the same bits at the same indices, so at the same
//       shuffle positions;
//   (2) a 3-point basis is acute by a margin: every angle has a cosine of
//       at least kMinCos = 1e-2, and no two of its points coincide (of()
//       checks it once per circle);
//   (3) every other point x has |x - c|^2 <= (R (1 - kDepth))^2, with
//       kDepth = 1e-6, computed as Disk::contains computes it;
//   (4) kMinRadius = 1e-4 <= R <= 1e100 (of() checks it once per circle).
// Then Welzl over the new points returns C, bit for bit:
//
// Replay. If b1 is again the top loop's last failure, b2 that of
// secWithOne(a) and b3 that of secWithTwo(a, j), the circle returned is
// the one built at those failures: circleFrom3(b1, b2, b3) of the same bits
// in the same argument order. For |B| = 2, secWithOne(a) builds
// circleFrom2(b1, b2) at j, by its zero-radius branch or by a secWithTwo
// with no failure; both give the same bits.
//
// No later failure. Every point after a in the top loop, after j in
// secWithOne(a) and after k in secWithTwo(a, j) is a non-basis point, and
// is tested against Disk(C). By (3) its d2, the same expression Disk
// computes, is at most R^2 (1 - 1e-6)^2 < R^2 (1 - 1e-12) <= t^2 (1 - 1e-12)
// = Disk's `lo`, since Disk's t = R (1 + 1e-14) + 1e-14 >= R: it passes.
//
// The basis points fail. Exact arithmetic first. Let v be a basis point and
// D the circle Welzl holds when it tests v: the smallest circle containing
// the points scanned before v (top loop: b2, b3 and non-basis points), or
// the smallest with b1 on it (secWithOne: b3 and non-basis points), or the
// smallest with b1 and b2 on it (secWithTwo: non-basis points). Each
// non-basis point lies within R - 2h of c, h = kDepth R / 2. Move C's center
// by h toward the midpoint of the two other basis points' chord: the circle
// through them about c + h u has radius rho, rho^2 = R^2 - 2 h R cos(angle
// at v) + h^2 >= (R - h)^2, so it still holds every non-basis point (within
// R - 2h + h of the new center). It passes through every point D must pass
// through, so D's radius is at most rho. A disk holding all of B has
// radius >= R (B is acute, so C is its smallest enclosing circle; for
// |B| = 2, B is a diameter of C). So if v were within e of D, the disk of
// D's radius + e would hold B: e >= R - rho >= h cos(angle at v) - h^2 /
// (2R) >= R (kDepth kMinCos / 2 - kDepth^2 / 8) > 4.9e-9 R. (For |B| = 2,
// move the center by h toward the other basis point: e >= h.)
//
// Rounding. Disk's test rejects a point farther than t (1 + 1e-12) from
// the computed center (normLeq's band, plus the d2 rounding, under 1e-15
// relative), and t (1 + 1e-12) - R_D <= R_D (1e-14 + 1.1e-12) + 2e-14
// <= 1.2e-12 R + 2e-14. C itself is computed to within ~1e-14 R: (2)
// keeps every angle in [1.14, 89.43] degrees, a well-conditioned
// circumcircle; the cosines in (2) and d2 in (3) are within 1e-15 of
// exact. With (4), 2e-14 <= 2e-10 R. That leaves over 4.6e-9 R, some
// 10^7 ulps of R, for the one term no check here bounds: how far the
// floating-point circles Welzl holds before each basis point lie from
// the exact ones above. They are circleFrom2/circleFrom3 of input points,
// off by that much only for near-degenerate triples (condition number
// above ~1e7). tests/sec_certificate_test.cpp compares every certified
// circle with Welzl's, bit for bit, on every Look of live runs.
bool SecCarry::certify(std::span<const Vec2> pts) const {
  if (basisSize_ == 0 || pts.size() != n_) return false;
  const auto bits = [](Vec2 v) {
    return std::pair{std::bit_cast<std::uint64_t>(v.x),
                     std::bit_cast<std::uint64_t>(v.y)};
  };
  for (std::size_t b = 0; b < 3; ++b) {
    if (bits(pts[index_[b]]) != bits(point_[b])) return false;
  }
  const Vec2 c = circle_.center;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    const Vec2 d = pts[j] - c;
    if (d.x * d.x + d.y * d.y <= inner2_) continue;
    if (j != index_[0] && j != index_[1] && j != index_[2]) return false;
  }
  return true;
}

bool holdsSec(std::span<const Vec2> pts, std::size_t i, const Tol& tol) {
  return holdsSec(pts, i, smallestEnclosingCircle(pts), tol);
}

bool holdsSec(std::span<const Vec2> pts, std::size_t i, const Circle& whole,
              const Tol& tol) {
  if (!whole.onBoundary(pts[i], tol)) return false;
  const Circle without = secSkipping(pts, i);
  return !distEq(without.radius, whole.radius, tol) ||
         !nearlyEqual(without.center, whole.center, tol);
}

std::vector<std::size_t> secHolders(std::span<const Vec2> pts, const Tol& tol) {
  const Circle whole = smallestEnclosingCircle(pts);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (holdsSec(pts, i, whole, tol)) out.push_back(i);
  }
  return out;
}

}  // namespace apf::geom

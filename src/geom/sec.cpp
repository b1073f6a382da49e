#include "geom/sec.h"

#include <algorithm>
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

bool inCircle(const Circle& c, Vec2 p) {
  // Slightly enlarged membership keeps Welzl numerically stable.
  return normLeq(p - c.center, c.radius * (1.0 + 1e-14) + 1e-14);
}

Circle secWithTwo(std::span<const Vec2> pts, std::size_t end, Vec2 p, Vec2 q) {
  Circle c = circleFrom2(p, q);
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) c = circleFrom3(p, q, pts[i]);
  }
  return c;
}

Circle secWithOne(std::span<const Vec2> pts, std::size_t end, Vec2 p) {
  Circle c{p, 0.0};
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) {
      c = (c.radius == 0.0) ? circleFrom2(p, pts[i])
                            : secWithTwo(pts, i, p, pts[i]);
    }
  }
  return c;
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
/// without that point.
Circle secSkipping(std::span<const Vec2> pts, std::size_t skip) {
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

  Circle c{shuffled[0], 0.0};
  for (std::size_t i = 1; i < n; ++i) {
    if (!inCircle(c, shuffled[i])) {
      c = secWithOne(shuffled, i, shuffled[i]);
    }
  }
  return c;
}

}  // namespace

Circle smallestEnclosingCircle(std::span<const Vec2> pts) {
  return secSkipping(pts, pts.size());
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

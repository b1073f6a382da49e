#include "config/similarity.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {
namespace {

bool matchMultiset(const std::vector<Vec2>& a, const std::vector<Vec2>& b,
                   const Tol& tol) {
  std::vector<bool> used(b.size(), false);
  for (const Vec2& p : a) {
    bool found = false;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && geom::nearlyEqual(p, b[j], tol)) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

bool coincident(const Configuration& a, const Configuration& b,
                const Tol& tol) {
  return a.size() == b.size() && matchMultiset(a.points(), b.points(), tol);
}

std::optional<Similarity> findSimilarity(const Configuration& a,
                                         const Configuration& b,
                                         bool allowReflection,
                                         const Tol& tol) {
  auto& work = geomCacheCounters();
  ++work.similarityCalls;
  if (a.size() != b.size()) return std::nullopt;
  if (a.empty()) return Similarity::identity();

  const Circle ca = a.sec(), cb = b.sec();
  if (ca.radius <= tol.dist) {
    // All of A coincides; similar iff all of B coincides.
    if (cb.radius <= tol.dist) {
      return Similarity::translation(cb.center - ca.center);
    }
    return std::nullopt;
  }
  if (cb.radius <= tol.dist) return std::nullopt;
  const double s = cb.radius / ca.radius;

  // Cheap necessary condition: the sorted multisets of SEC-centered radii
  // must match (rotation/reflection-invariant). Rejects most non-similar
  // pairs in O(n log n) before any rotation is tried.
  {
    std::vector<double> ra, rb;
    ra.reserve(a.size());
    rb.reserve(b.size());
    for (const Vec2& p : a.points()) ra.push_back(geom::dist(p, ca.center) / ca.radius);
    for (const Vec2& p : b.points()) rb.push_back(geom::dist(p, cb.center) / cb.radius);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      // Radii can differ by up to the point tolerance even for a perfect
      // match; use a slightly relaxed bound.
      if (std::fabs(ra[i] - rb[i]) > 2.0 * tol.dist + 1e-12) {
        return std::nullopt;
      }
    }
  }

  // Normalize both to unit SEC at the origin.
  std::vector<Vec2> na, nb;
  na.reserve(a.size());
  nb.reserve(b.size());
  for (const Vec2& p : a.points()) na.push_back((p - ca.center) / ca.radius);
  for (const Vec2& p : b.points()) nb.push_back((p - cb.center) / cb.radius);

  // Reference: a point of A on the SEC boundary (always exists).
  std::size_t ref = 0;
  double refNorm = 0.0;
  for (std::size_t i = 0; i < na.size(); ++i) {
    if (na[i].norm() > refNorm) {
      refNorm = na[i].norm();
      ref = i;
    }
  }
  const double refArg = na[ref].arg();

  const int reflections = allowReflection ? 2 : 1;
  for (int refl = 0; refl < reflections; ++refl) {
    std::vector<Vec2> base = na;
    if (refl == 1) {
      for (Vec2& p : base) p.y = -p.y;
    }
    const double baseRefArg = (refl == 1) ? -refArg : refArg;
    for (const Vec2& target : nb) {
      if (!geom::distEq(target.norm(), refNorm, tol)) continue;
      ++work.similarityTransforms;
      const double theta = target.arg() - baseRefArg;
      std::vector<Vec2> rotated;
      rotated.reserve(base.size());
      for (const Vec2& p : base) rotated.push_back(p.rotated(theta));
      if (matchMultiset(rotated, nb, tol)) {
        // Full transform: x -> cb.center + s * R(theta) * M(refl) * (x - ca.center)
        const Similarity toOrigin = Similarity::translation(-ca.center);
        const Similarity lin(geom::norm2pi(theta), s, refl == 1, Vec2{});
        const Similarity toB = Similarity::translation(cb.center);
        return toB * lin * toOrigin;
      }
    }
  }
  return std::nullopt;
}

bool similar(const Configuration& a, const Configuration& b, const Tol& tol) {
  return findSimilarity(a, b, true, tol).has_value();
}

}  // namespace apf::config

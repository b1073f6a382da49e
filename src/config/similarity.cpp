#include "config/similarity.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {
namespace {

/// Greedy multiset match of map(a) against b: each mapped point of a takes
/// the first unused point of b within tol. A point is mapped only when the
/// match reaches it, so the points after the first one without a partner
/// are never mapped. `used` is scratch.
template <class Map>
bool matchMultiset(const std::vector<Vec2>& a, Map map,
                   const std::vector<Vec2>& b, std::vector<char>& used,
                   const Tol& tol) {
  used.assign(b.size(), 0);
  for (const Vec2& p : a) {
    const Vec2 q = map(p);
    bool found = false;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && geom::nearlyEqual(q, b[j], tol)) {
        used[j] = 1;
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
  std::vector<char> used;
  return a.size() == b.size() &&
         matchMultiset(a.points(), [](Vec2 p) { return p; }, b.points(),
                       used, tol);
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
  // Each target's norm, shared by both reflections.
  std::vector<double> nbNorm;
  nbNorm.reserve(nb.size());
  for (const Vec2& target : nb) nbNorm.push_back(target.norm());

  std::vector<char> used;
  const int reflections = allowReflection ? 2 : 1;
  for (int refl = 0; refl < reflections; ++refl) {
    const bool mirror = refl == 1;  // reflect A in the x-axis first
    const double baseRefArg = mirror ? -refArg : refArg;
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if (!geom::distEq(nbNorm[j], refNorm, tol)) continue;
      ++work.similarityTransforms;
      const double theta = nb[j].arg() - baseRefArg;
      // p.rotated(theta), with cos and sin taken once per candidate.
      const double c = std::cos(theta), sn = std::sin(theta);
      const auto place = [c, sn, mirror](Vec2 p) {
        if (mirror) p.y = -p.y;
        return p.rotated(c, sn);
      };
      if (matchMultiset(na, place, nb, used, tol)) {
        // Full transform: x -> cb.center + s * R(theta) * M(refl) * (x - ca.center)
        const Similarity toOrigin = Similarity::translation(-ca.center);
        const Similarity lin(geom::norm2pi(theta), s, mirror, Vec2{});
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

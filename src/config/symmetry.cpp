#include "config/symmetry.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {
namespace {

/// Multiset coincidence of `a` and `b` (same size assumed): greedy matching
/// is sound here because the tolerance is far below point separation.
bool coincides(const std::vector<Vec2>& a, const std::vector<Vec2>& b,
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

/// q reflected across the line through `center` with unit direction u:
/// 2 (d.u) u - d around the center. Shared by reflectionMapsToSelf and
/// the pre-rejection in symmetryAxes, which must agree bit for bit.
Vec2 reflectAcross(Vec2 q, Vec2 center, Vec2 u) {
  const Vec2 d = q - center;
  return center + u * (2.0 * d.dot(u)) - d;
}

/// Exact pre-rejection for reflectionMapsToSelf(p, center, a, tol) over
/// the candidate axes of one symmetryAxes call: admits(a) is false only
/// when that call is false too. Its coincides() matches the reflection r
/// of pts[0] first and fails when no point is nearlyEqual to it, so
/// admits(a) looks for such a partner, among the points whose radius around
/// center is close to pts[0]'s only.
///
/// Why that radius window never drops a partner, with u = 2^-53: let R be
/// the exact reflection of pts[0] across the exact line at angle a, and
/// D = |pts[0] - center|. Rounding puts r within 30u (|center| + D) of R,
/// and a computed |r - q| <= tol.dist means |r - q| <= tol.dist (1 + 4u).
/// So a partner q lies within tol.dist + m of R, where the margin
/// m = 1e-12 (|center.x| + |center.y| + D + tol.dist) is hundreds of times
/// those rounding terms at any coordinate scale. R has radius D, so q's
/// radius is within tol.dist + m of D (triangle inequality). Computed radii
/// are a few ulps off, which a second m covers.
class ReflectionFilter {
 public:
  ReflectionFilter(const std::vector<Vec2>& pts,
                   const std::vector<double>& radius, Vec2 center,
                   const Tol& tol)
      : pts_(pts), center_(center), tol_(tol) {
    const double d = radius[0];
    const double m =
        1e-12 * (std::fabs(center.x) + std::fabs(center.y) + d + tol.dist);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (std::fabs(radius[j] - d) <= tol.dist + 2.0 * m) {
        partners_.push_back(j);
      }
    }
  }

  bool admits(double axisDir) const {
    const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
    const Vec2 r = reflectAcross(pts_[0], center_, u);
    return std::any_of(partners_.begin(), partners_.end(), [&](std::size_t j) {
      return geom::nearlyEqual(r, pts_[j], tol_);
    });
  }

 private:
  const std::vector<Vec2>& pts_;
  Vec2 center_;
  Tol tol_;
  std::vector<std::size_t> partners_;
};

}  // namespace

bool rotationMapsToSelf(const Configuration& p, Vec2 center, double angle,
                        const Tol& tol) {
  ++geomCacheCounters().rotationsTried;
  std::vector<Vec2> rotated;
  rotated.reserve(p.size());
  for (const Vec2& q : p.points()) {
    rotated.push_back(center + (q - center).rotated(angle));
  }
  return coincides(rotated, p.points(), tol);
}

bool reflectionMapsToSelf(const Configuration& p, Vec2 center, double axisDir,
                          const Tol& tol) {
  ++geomCacheCounters().reflectionsTried;
  const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
  std::vector<Vec2> reflected;
  reflected.reserve(p.size());
  for (const Vec2& q : p.points()) {
    reflected.push_back(reflectAcross(q, center, u));
  }
  return coincides(reflected, p.points(), tol);
}

int symmetricity(const Configuration& p, Vec2 center, const Tol& tol) {
  ++geomCacheCounters().symmetricityCalls;
  const int n = static_cast<int>(p.size());
  if (n <= 1) return std::max(n, 1);
  // Points at the center are fixed by every rotation; symmetricity is
  // governed by the remaining points, and any m that maps them to
  // themselves works. The candidate orders divide the number of off-center
  // points.
  int off = 0;
  for (double r : p.polar(center).radius) {
    if (r > tol.dist) ++off;
  }
  if (off == 0) return 1;
  for (int m = off; m >= 2; --m) {
    if (off % m != 0) continue;
    if (rotationMapsToSelf(p, center, geom::kTwoPi / m, tol)) return m;
  }
  return 1;
}

std::vector<double> symmetryAxes(const Configuration& p, Vec2 center,
                                 const Tol& tol) {
  ++geomCacheCounters().axesCalls;
  const auto& pts = p.points();
  if (pts.empty()) return {};
  const PolarTable& polar = p.polar(center);
  const std::vector<double>& radius = polar.radius;
  const std::vector<double>& dir = polar.dir;
  const ReflectionFilter filter(pts, radius, center, tol);

  // Candidate axis directions: the direction of each point, and the bisector
  // of each pair of points (both mod pi). Any true axis must be one of them
  // (an axis either passes through a point or bisects a mirror pair).
  // Candidates the filter rejects can never be accepted, so they are
  // dropped before sorting: the survivors, sorted, are the sorted list
  // filtered, because candidates that compare equal are bitwise equal. The
  // one exception is +0.0 against -0.0, whose order only sorting the full
  // list fixes; a -0.0 candidate needs a direction of exactly -0.0, and
  // then every candidate is kept.
  const bool negativeZero = std::any_of(dir.begin(), dir.end(), [](double a) {
    return a == 0.0 && std::signbit(a);
  });
  std::vector<double> candidates;
  std::uint64_t examined = 0;
  auto consider = [&](double a) {
    ++examined;
    if (negativeZero || filter.admits(a)) candidates.push_back(a);
  };
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (radius[i] <= tol.dist) continue;
    const double ai = dir[i];
    consider(std::fmod(ai, geom::kPi));
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (radius[j] <= tol.dist) continue;
      const double aj = dir[j];
      consider(std::fmod((ai + aj) / 2.0, geom::kPi));
      consider(std::fmod((ai + aj) / 2.0 + geom::kPi / 2.0, geom::kPi));
    }
  }
  geomCacheCounters().axesCandidates += examined;
  std::sort(candidates.begin(), candidates.end());
  std::vector<double> axes;
  for (double a : candidates) {
    if (!axes.empty() && std::fabs(a - axes.back()) <= tol.ang) continue;
    if (reflectionMapsToSelf(p, center, a, tol)) axes.push_back(a);
  }
  // Merge the wrap-around duplicate (axis near 0 and near pi are the same).
  if (axes.size() >= 2 &&
      std::fabs(axes.front() + geom::kPi - axes.back()) <= tol.ang) {
    axes.pop_back();
  }
  return axes;
}

}  // namespace apf::config

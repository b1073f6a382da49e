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

/// fmod(x, kPi) for x in [0, 3 kPi), or -0.0, by one exact subtraction.
/// fmod is exact: it returns x - k kPi with k = trunc(x / kPi). For
/// x < kPi that is x itself (a -0.0 included). For x in [kPi, 2 kPi) it is
/// x - kPi, and for x in [2 kPi, 3 kPi) it is x - kTwoPi (kTwoPi is exactly
/// 2 kPi); by Sterbenz's lemma (y <= x <= 2y) both subtractions are exact,
/// so they return fmod's bits.
double modPi(double x) {
  if (x < geom::kPi) return x;
  if (x < geom::kTwoPi) return x - geom::kPi;
  return x - geom::kTwoPi;
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
/// So a partner q lies within T = tol.dist + m of R, where the margin
/// m = 1e-12 (|center.x| + |center.y| + D + tol.dist) is hundreds of times
/// those rounding terms at any coordinate scale. R has radius D, so q's
/// radius is within T of D (triangle inequality). Computed radii are a few
/// ulps off, which a second m covers.
///
/// Before any cos/sin, admits(a) also asks whether a lies near some
/// partner's mirror axis. Partner j (radius D_j, exact direction t_j;
/// pts[0] has t_0) mirrors pts[0] across phi_j = (t_0 + t_j) / 2 mod pi.
/// R has radius D and direction 2a - t_0, so by the law of cosines
///   |R - q_j|^2 = (D - D_j)^2 + 4 D D_j sin^2(a - phi_j).
/// A match needs |R - q_j| <= T, hence |sin(a - phi_j)| <= T / (2 sqrt(D D_j)),
/// and since |sin x| >= 2|x| / pi on [-pi/2, pi/2], a lies within
/// w_j = (pi / 4) T / sqrt(D D_j) of phi_j, measured mod pi. The computed
/// directions (rounded subtraction, atan2, norm2pi) are within 2e-15 of the
/// exact ones mod 2pi (a 2pi wrap moves the half-sum by pi, which mod pi
/// does not see) and the computed radii within a relative 8u, so a
/// relative 1e-9 and an absolute 1e-12 on w_j cover all rounding. When
/// some w_j is pi/2 or more (or NaN, from a point at the center) every a
/// passes.
class ReflectionFilter {
 public:
  ReflectionFilter(const std::vector<Vec2>& pts, const PolarTable& polar,
                   Vec2 center, const Tol& tol)
      : pts_(pts), center_(center), tol_(tol) {
    const double d = polar.radius[0];
    const double m =
        1e-12 * (std::fabs(center.x) + std::fabs(center.y) + d + tol.dist);
    const double t = tol.dist + m;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (std::fabs(polar.radius[j] - d) > tol.dist + 2.0 * m) continue;
      partners_.push_back(j);
      const double w = geom::kPi / 4.0 * t / std::sqrt(d * polar.radius[j]) *
                           (1.0 + 1e-9) +
                       1e-12;
      if (!(w < geom::kPi / 2.0)) anyAxis_ = true;
      mirrors_.push_back({modPi((polar.dir[0] + polar.dir[j]) / 2.0), w});
    }
  }

  /// axisDir in [0, pi), as symmetryAxes' candidates are.
  bool admits(double axisDir) const {
    if (!anyAxis_ &&
        std::none_of(mirrors_.begin(), mirrors_.end(), [&](const Mirror& k) {
          const double off = std::fabs(axisDir - k.axis);
          return std::min(off, geom::kPi - off) <= k.window;
        })) {
      return false;
    }
    const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
    const Vec2 r = reflectAcross(pts_[0], center_, u);
    return std::any_of(partners_.begin(), partners_.end(), [&](std::size_t j) {
      return geom::nearlyEqual(r, pts_[j], tol_);
    });
  }

 private:
  struct Mirror {
    double axis;    ///< phi_j in [0, pi)
    double window;  ///< w_j
  };

  const std::vector<Vec2>& pts_;
  Vec2 center_;
  Tol tol_;
  std::vector<std::size_t> partners_;
  /// mirrors_[k] belongs to partners_[k]. One vector of {index, axis,
  /// window} measured about 10% slower end to end on formation_rand64.
  std::vector<Mirror> mirrors_;
  bool anyAxis_ = false;
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
  const ReflectionFilter filter(pts, polar, center, tol);

  // Candidate axis directions: the direction of each point, and the bisector
  // of each pair of points (both mod pi, by modPi). Any true axis must be
  // one of them (an axis either passes through a point or bisects a mirror
  // pair).
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
    consider(modPi(ai));
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (radius[j] <= tol.dist) continue;
      const double aj = dir[j];
      consider(modPi((ai + aj) / 2.0));
      consider(modPi((ai + aj) / 2.0 + geom::kPi / 2.0));
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

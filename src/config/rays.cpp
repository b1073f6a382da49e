#include "config/rays.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {

std::optional<std::vector<DirEntry>> sortedDirections(
    const Configuration& p, std::span<const std::size_t> subset, Vec2 c,
    const Tol& tol) {
  const PolarTable& t = p.polar(c);
  std::vector<DirEntry> dirs;
  dirs.reserve(subset.size());
  for (std::size_t i : subset) {
    if (t.radius[i] <= tol.dist) return std::nullopt;
    dirs.push_back({t.dir[i], i});
  }
  std::sort(dirs.begin(), dirs.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.angle < b.angle; });
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const double next =
        (k + 1 < dirs.size()) ? dirs[k + 1].angle : dirs[0].angle + geom::kTwoPi;
    if (next - dirs[k].angle <= tol.ang) return std::nullopt;  // shared ray
  }
  return dirs;
}

namespace {

/// The ray directions of rayDirections from the unsorted directions `dirs`.
std::vector<double> raysOf(std::vector<double> dirs, const Tol& tol) {
  std::sort(dirs.begin(), dirs.end());
  std::vector<double> out;
  for (double a : dirs) {
    if (out.empty() || a - out.back() > tol.ang) out.push_back(a);
  }
  if (out.size() >= 2 && out.front() + geom::kTwoPi - out.back() <= tol.ang) {
    out.pop_back();
  }
  return out;
}

/// The directions around c of m's points farther than tol.dist from c, in
/// point order.
std::vector<double> offCenterDirections(const Configuration& m, Vec2 c,
                                        const Tol& tol) {
  const PolarTable& t = m.polar(c);
  std::vector<double> dirs;
  dirs.reserve(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (t.radius[i] > tol.dist) dirs.push_back(t.dir[i]);
  }
  return dirs;
}

/// alphaMin over the unsorted directions `dirs` of the off-center points.
double alphaMinOf(std::vector<double> dirs, const Tol& tol) {
  dirs = raysOf(std::move(dirs), tol);
  if (dirs.size() < 2) return geom::kTwoPi;
  double best = geom::kTwoPi;
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const double next = (k + 1 < dirs.size()) ? dirs[k + 1]
                                              : dirs[0] + geom::kTwoPi;
    // The angle between half-lines is the gap or its reflex complement,
    // whichever is smaller; gaps are already in (0, 2pi).
    const double gap = next - dirs[k];
    best = std::min(best, std::min(gap, geom::kTwoPi - gap));
  }
  return best;
}

}  // namespace

std::vector<double> rayDirections(const Configuration& m, Vec2 c,
                                  const Tol& tol) {
  return raysOf(offCenterDirections(m, c, tol), tol);
}

double alphaMin(const Configuration& m, Vec2 c, const Tol& tol) {
  return alphaMinOf(offCenterDirections(m, c, tol), tol);
}

double alphaMinMoved(const Configuration& m, std::size_t i, Vec2 to, Vec2 c,
                     const Tol& tol) {
  // m' differs from m in point i only, so its polar table at c is m's with
  // entry i recomputed by Configuration::polar's own expressions, and
  // alphaMin(m', c, tol) would read exactly these doubles in this order.
  const PolarTable& t = m.polar(c);
  std::vector<double> dirs;
  dirs.reserve(m.size());
  for (std::size_t q = 0; q < m.size(); ++q) {
    if (q != i) {
      if (t.radius[q] > tol.dist) dirs.push_back(t.dir[q]);
    } else if (geom::dist(to, c) > tol.dist) {
      dirs.push_back(geom::norm2pi((to - c).arg()));
    }
  }
  return alphaMinOf(std::move(dirs), tol);
}

double alphaMinAt(Vec2 p, const Configuration& m, Vec2 c, const Tol& tol) {
  const Vec2 dp = p - c;
  if (geom::normLeq(dp, tol.dist)) return geom::kTwoPi;
  const double ap = geom::norm2pi(dp.arg());
  const PolarTable& t = m.polar(c);
  double best = geom::kTwoPi;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (t.radius[i] <= tol.dist) continue;
    const double a = geom::angDist(ap, t.dir[i]);
    if (a > tol.ang) best = std::min(best, a);
  }
  return best;
}

}  // namespace apf::config

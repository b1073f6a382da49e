#include "config/regular.h"

#include <algorithm>
#include <cmath>

#include "config/rays.h"
#include "config/symmetry.h"
#include "config/view.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::config {
namespace {

std::vector<double> gapsOf(const std::vector<DirEntry>& dirs) {
  std::vector<double> gaps(dirs.size());
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const double next =
        (k + 1 < dirs.size()) ? dirs[k + 1].angle : dirs[0].angle + geom::kTwoPi;
    gaps[k] = next - dirs[k].angle;
  }
  return gaps;
}

/// Classify sorted gaps as equiangular or bi-angled starting at offset s.
/// Returns {ok, alpha, beta, startOffset}; equiangular reports alpha == beta.
struct GapClass {
  bool ok = false;
  double alpha = 0.0;
  double beta = 0.0;
  std::size_t start = 0;  ///< sorted index that becomes grid ray 0
};

GapClass classifyGaps(const std::vector<double>& gaps, double angTol) {
  const std::size_t m = gaps.size();
  const double equi = geom::kTwoPi / static_cast<double>(m);
  bool allEqui = true;
  for (double g : gaps) {
    if (std::fabs(g - equi) > angTol) {
      allEqui = false;
      break;
    }
  }
  if (allEqui) return {true, equi, equi, 0};
  // Bi-angled sets need an even ray count. m == 2 is legitimate (any
  // non-diametral pair is a bi-angled 2-point set — Property 1's witness
  // for axially symmetric configurations, whose top view class is a mirror
  // pair); Definition 2's complement conditions then do the filtering.
  if (m < 2 || m % 2 != 0) return {};
  for (std::size_t s = 0; s < 2; ++s) {
    double a = 0.0, b = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      ((k % 2 == 0) ? a : b) += gaps[(s + k) % m];
    }
    a /= static_cast<double>(m / 2);
    b /= static_cast<double>(m / 2);
    bool ok = true;
    for (std::size_t k = 0; k < m && ok; ++k) {
      const double want = (k % 2 == 0) ? a : b;
      ok = std::fabs(gaps[(s + k) % m] - want) <= angTol;
    }
    // Canonical representation: alpha < beta.
    if (ok && a < b - angTol) return {true, a, b, s};
  }
  return {};
}

RegularSetInfo makeInfo(const std::vector<DirEntry>& dirs, const GapClass& cls,
                        Vec2 c, bool wholeConfig) {
  const std::size_t m = dirs.size();
  RegularSetInfo info;
  info.biangular = std::fabs(cls.alpha - cls.beta) > 1e-12;
  info.wholeConfig = wholeConfig;
  info.grid.center = c;
  info.grid.numRays = static_cast<int>(m);
  info.grid.alpha = cls.alpha;
  info.grid.beta = cls.beta;
  info.grid.theta0 = dirs[cls.start].angle;
  info.indices.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    info.indices.push_back(dirs[(cls.start + k) % m].index);
  }
  return info;
}

}  // namespace

__attribute__((weak)) void onGridFitProblem(std::span<const Vec2>,
                                            std::span<const int>, int, bool,
                                            const geom::AngularGrid&,
                                            const Tol&) {}

std::optional<geom::GridFit> fitGridWithin(std::span<const Vec2> pts,
                                           std::span<const int> rayIndex,
                                           int numRays, bool biangular,
                                           const geom::AngularGrid& init,
                                           const Tol& tol) {
  onGridFitProblem(pts, rayIndex, numRays, biangular, init, tol);
  if (geom::gridFitRuledOut(pts, rayIndex, numRays, biangular, tol.ang)) {
    return std::nullopt;
  }
  ++geomCacheCounters().gridFits;
  auto fit = geom::fitAngularGrid(pts, rayIndex, numRays, biangular, init);
  if (!fit || fit->maxResidual > tol.ang) return std::nullopt;
  return fit;
}

std::optional<RegularSetInfo> checkRegularKnownCenter(
    const Configuration& p, std::span<const std::size_t> subset, Vec2 c,
    const Tol& tol) {
  if (subset.size() < 2) return std::nullopt;
  const auto dirs = sortedDirections(p, subset, c, tol);
  if (!dirs) return std::nullopt;
  const auto cls = classifyGaps(gapsOf(*dirs), tol.ang);
  if (!cls.ok) return std::nullopt;
  return makeInfo(*dirs, cls, c, subset.size() == p.size());
}

std::optional<RegularSetInfo> checkRegularFreeCenter(const Configuration& p,
                                                     const Tol& tol) {
  const std::size_t n = p.size();
  if (n < 3) return std::nullopt;
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;

  const Vec2 w = p.weberPoint();
  auto dirs = sortedDirections(p, all, w, tol);
  if (!dirs) return std::nullopt;
  // Loose classification first (the Weiszfeld center carries iteration
  // error), then Gauss-Newton refinement, then a strict re-check.
  const double looseTol = 1e-4;
  const auto cls = classifyGaps(gapsOf(*dirs), looseTol);
  if (!cls.ok) return std::nullopt;
  const bool biangular = std::fabs(cls.alpha - cls.beta) > looseTol;

  std::vector<Vec2> pts;
  std::vector<int> rayIndex;
  pts.reserve(n);
  rayIndex.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    pts.push_back(p[(*dirs)[(cls.start + k) % n].index]);
    rayIndex.push_back(static_cast<int>(k));
  }
  geom::AngularGrid init;
  init.center = w;
  init.theta0 = (*dirs)[cls.start].angle;
  init.alpha = cls.alpha;
  init.beta = cls.beta;
  init.numRays = static_cast<int>(n);
  const auto fit = fitGridWithin(pts, rayIndex, static_cast<int>(n),
                                 biangular, init, tol);
  if (!fit) return std::nullopt;

  // Re-derive ray order and the alpha < beta form around the refined center.
  auto refined = sortedDirections(p, all, fit->grid.center, tol);
  if (!refined) return std::nullopt;
  const auto cls2 = classifyGaps(gapsOf(*refined), tol.ang * 10.0);
  if (!cls2.ok) return std::nullopt;
  return makeInfo(*refined, cls2, fit->grid.center, true);
}

std::optional<RegularSetInfo> regularSetOf(const Configuration& p,
                                           const Tol& tol,
                                           std::vector<View>* secViews) {
  ++geomCacheCounters().regularCalls;
  if (auto whole = checkRegularFreeCenter(p, tol)) return whole;

  // Hoisted once per call; repeated sec() lookups below and in the callers
  // that follow (centerOf, Definition-3 verification on the same P) hit the
  // Configuration-level memo instead of re-running Welzl.
  const Circle sec = p.sec();
  const Vec2 c = sec.center;
  // Def. 2 requires c(P) not occupied.
  for (double r : p.polar(c).radius) {
    if (r <= tol.dist) return std::nullopt;
  }

  std::vector<View> ownViews;
  std::vector<View>& views = secViews ? *secViews : ownViews;
  if (views.empty()) {
    views = headFirstViews(p, c, /*withMultiplicity=*/false, tol);
  }
  const auto order = byViewDescending(views);
  std::vector<std::size_t> nonHolders;
  for (std::size_t i : order) {
    if (!geom::holdsSec(p.span(), i, sec, tol)) nonHolders.push_back(i);
  }

  std::optional<RegularSetInfo> best;
  std::uint64_t prefixes = 0;
  for (std::size_t i = 2; i <= nonHolders.size(); ++i) {
    // Only cut at view-class boundaries: a prefix that splits a tie class of
    // equivalent robots is not uniquely defined (cf. Property 1's proof,
    // which always takes whole classes).
    if (i < nonHolders.size() &&
        compareViews(views[nonHolders[i - 1]], views[nonHolders[i]]) == 0) {
      continue;
    }
    std::span<const std::size_t> prefix(nonHolders.data(), i);
    ++prefixes;
    auto info = checkRegularKnownCenter(p, prefix, c, tol);
    if (!info) continue;

    std::vector<Vec2> compPts;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (std::find(prefix.begin(), prefix.end(), j) == prefix.end()) {
        compPts.push_back(p[j]);
      }
    }
    const Configuration comp(std::move(compPts));
    const int rho = symmetricity(comp, c, tol);
    if (rho % info->rotationalOrder() != 0) continue;
    if (info->biangular) {
      bool axesOk = true;
      for (double axis : virtualAxes(info->grid)) {
        if (!reflectionMapsToSelf(comp, c, axis, tol)) {
          axesOk = false;
          break;
        }
      }
      if (!axesOk) continue;
    }
    best = std::move(info);  // keep the largest prefix that qualifies
  }
  geomCacheCounters().regularPrefixes += prefixes;
  return best;
}

Vec2 centerOf(const Configuration& p, const Tol& tol) {
  if (auto whole = checkRegularFreeCenter(p, tol)) return whole->grid.center;
  return p.sec().center;
}

std::vector<double> virtualAxes(const geom::AngularGrid& grid) {
  std::vector<double> axes;
  for (int k = 0; k < grid.numRays; ++k) {
    const double gap = (k % 2 == 0) ? grid.alpha : grid.beta;
    double a = std::fmod(grid.rayDir(k) + gap / 2.0, geom::kPi);
    if (a < 0) a += geom::kPi;
    axes.push_back(a);
  }
  std::sort(axes.begin(), axes.end());
  axes.erase(std::unique(axes.begin(), axes.end(),
                         [](double a, double b) { return std::fabs(a - b) < 1e-9; }),
             axes.end());
  return axes;
}

}  // namespace apf::config

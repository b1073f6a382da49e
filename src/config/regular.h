#pragma once

/// \file regular.h
/// Regular sets (paper Definitions 1 and 2).
///
/// Definition 1: a set M of m >= 2 robots is m-regular (equiangular) or
/// m/2-regular ("bi-angled") around a center c when its m distinct
/// half-lines from c have all gaps equal to alpha, or alternating
/// alpha/beta. Definition 2 singles out *the* regular set reg(P) of a
/// configuration: the whole configuration when it is regular (center = its
/// Weber point), else the largest view-prefix Q_i of the non-SEC-holding
/// robots that (a) is regular around c(P) = the SEC center, (b) has
/// rotational order dividing rho(P \ Q_i), and (c), when bi-angled, has its
/// virtual axes as symmetry axes of P \ Q_i.

#include <optional>
#include <span>
#include <vector>

#include "config/configuration.h"
#include "config/view.h"
#include "geom/weber.h"

namespace apf::config {

/// A detected regular set.
struct RegularSetInfo {
  /// Indices (into P) of the set's robots, ordered by grid ray: indices[k]
  /// lies on grid ray k.
  std::vector<std::size_t> indices;
  /// The fitted angular grid (numRays == indices.size()).
  geom::AngularGrid grid;
  bool biangular = false;
  /// True when the regular set is the entire configuration.
  bool wholeConfig = false;

  /// Rotational order of the set's direction grid: m for equiangular sets,
  /// m/2 for bi-angled ones. This is the divisor in Def. 2 condition (b).
  int rotationalOrder() const {
    const int m = static_cast<int>(indices.size());
    return biangular ? m / 2 : m;
  }
};

/// Definition 1 around a *known* center: checks whether the robots at
/// `subset` indices of p form an equiangular or bi-angled set centered at c.
std::optional<RegularSetInfo> checkRegularKnownCenter(
    const Configuration& p, std::span<const std::size_t> subset, Vec2 c,
    const Tol& tol = geom::kDefaultTol);

/// Definition 1 with a free center: checks whether the *whole* configuration
/// is a regular set. The center is recovered via the Weber point and refined
/// by a Gauss-Newton angular-grid fit.
std::optional<RegularSetInfo> checkRegularFreeCenter(
    const Configuration& p, const Tol& tol = geom::kDefaultTol);

/// The angular-grid fit behind checkRegularFreeCenter and the shifted-set
/// search: fits pts to a grid with the fixed ray assignment rayIndex (see
/// geom::fitAngularGrid) and returns it only when every residual is within
/// tol.ang. An assignment that geom::gridFitRuledOut proves unfittable is
/// rejected before Gauss-Newton runs, so GeomCacheCounters::gridFits counts
/// only the fits that run.
std::optional<geom::GridFit> fitGridWithin(std::span<const Vec2> pts,
                                           std::span<const int> rayIndex,
                                           int numRays, bool biangular,
                                           const geom::AngularGrid& init,
                                           const Tol& tol);

/// Sees every fitGridWithin problem before it is pre-rejected or fitted.
/// The library's definition is a weak no-op. tests/grid_prereject_test.cpp
/// links a strong one that records the problems, to compare the fit with
/// and without the pre-rejection on every problem a run reaches.
void onGridFitProblem(std::span<const Vec2> pts, std::span<const int> rayIndex,
                      int numRays, bool biangular,
                      const geom::AngularGrid& init, const Tol& tol);

/// Definition 2: reg(P). Returns nullopt when P contains no regular set.
/// `secViews`, when given, is either empty or exactly
/// headFirstViews(p, p.sec().center, false, tol). regularSetOf reads those
/// views from it, filling it first when empty, so a caller that needs the
/// same views too builds them once (core::Analysis does).
std::optional<RegularSetInfo> regularSetOf(
    const Configuration& p, const Tol& tol = geom::kDefaultTol,
    std::vector<View>* secViews = nullptr);

/// The paper's c(P): the regular set's center when the whole configuration
/// is regular, otherwise the center of the smallest enclosing circle.
Vec2 centerOf(const Configuration& p, const Tol& tol = geom::kDefaultTol);

/// Directions (mod pi) of the virtual axes of symmetry of a bi-angled grid:
/// the bisectors of the gaps between consecutive rays.
std::vector<double> virtualAxes(const geom::AngularGrid& grid);

}  // namespace apf::config

#pragma once

/// \file weber.h
/// Weber point (geometric median) and angular-grid fitting.
///
/// The center of an m-regular set is its Weber point (Anderegg, Cieliebak,
/// Prencipe [1] — cited by the paper): the unit direction vectors of an
/// equiangular (or bi-angled with m/2-fold direction symmetry) set sum to
/// zero, so the grid center is a stationary point of the convex Weber
/// objective. We therefore detect regular sets by (1) computing the Weber
/// point with Weiszfeld's iteration, then (2) refining center and grid phase
/// with a Gauss-Newton fit on angular residuals, which recovers centers of
/// exactly-regular inputs to ~1e-12.

#include <optional>
#include <span>
#include <vector>

#include "geom/vec2.h"

namespace apf::geom {

/// Geometric median (Weber point) by Weiszfeld iteration with the Vardi-Zhang
/// safeguard for iterates landing on an input point. Deterministic.
Vec2 weberPoint(std::span<const Vec2> pts, int maxIter = 400,
                double tol = 1e-13);

/// An angular grid of `numRays` half-lines from `center`; ray k has direction
/// theta0 + prefix-sum of gaps, where gaps alternate alpha, beta, alpha, ...
/// (equiangular grids have alpha == beta == 2*pi/numRays).
struct AngularGrid {
  Vec2 center;
  double theta0 = 0.0;  ///< direction of ray 0
  double alpha = 0.0;   ///< gap after even-indexed rays
  double beta = 0.0;    ///< gap after odd-indexed rays
  int numRays = 0;

  /// Direction angle of ray k (k in [0, numRays)).
  double rayDir(int k) const;
  bool biangular() const { return alpha != beta; }
};

/// Result of a grid fit: the grid plus the worst absolute angular residual
/// over the fitted points.
struct GridFit {
  AngularGrid grid;
  double maxResidual = 0.0;
};

/// Fit an angular grid to points with a *fixed ray assignment*:
/// point i must lie on ray rayIndex[i]. Unknowns are the center and theta0
/// (plus alpha when `biangular`; then beta = 4*pi/numRays - alpha).
/// `init` seeds the iteration. Returns nullopt when Gauss-Newton fails to
/// converge (singular system or divergence). Callers that accept a fit only
/// at maxResidual <= angTol ask gridFitRuledOut first: it proves most
/// hopeless assignments unfittable before any iteration runs.
std::optional<GridFit> fitAngularGrid(std::span<const Vec2> pts,
                                      std::span<const int> rayIndex,
                                      int numRays, bool biangular,
                                      const AngularGrid& init);

/// Exact pre-rejection for fitAngularGrid: true only when no grid of this
/// kind (equiangular, or bi-angled with beta = 4*pi/numRays - alpha) with a
/// finite center puts every pts[i] within angTol of its ray rayIndex[i], as
/// gridResidual computes it. So a fit of this assignment is never accepted
/// at maxResidual <= angTol when this returns true.
///
/// The test uses opposite rays: ray k and ray k + numRays/2 point in exactly
/// opposite directions in an equiangular grid with numRays even, and in a
/// bi-angled grid with numRays % 4 == 0. The line through a point on each
/// must then pass close to the center, and the lines of three or more such
/// pairs must nearly meet in one point. It returns false (no verdict) for
/// odd numRays, for bi-angled grids with numRays % 4 != 0, for fewer than
/// three opposite pairs and for a pair of coincident points. The proof and
/// its rounding margins are at the definition.
bool gridFitRuledOut(std::span<const Vec2> pts, std::span<const int> rayIndex,
                     int numRays, bool biangular, double angTol);

/// Convenience: angular residual of point p against ray k of the grid,
/// wrapped to (-pi, pi].
double gridResidual(const AngularGrid& g, Vec2 p, int k);

}  // namespace apf::geom

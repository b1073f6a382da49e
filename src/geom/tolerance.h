#pragma once

/// \file tolerance.h
/// Central numeric-tolerance policy for the geometry kernel.
///
/// All approximate predicates in the library (point coincidence, angular
/// equality, circle membership, pattern similarity) route through one of the
/// helpers below so the tolerance discipline is uniform and adjustable in a
/// single place. The simulator keeps static robots bit-stable, so detections
/// on configurations produced by the algorithms typically see residuals
/// around 1e-12; the default tolerance of 1e-9 leaves three orders of
/// magnitude of headroom while still rejecting genuinely distinct geometry.

#include <cmath>

namespace apf::geom {

/// Tolerances used by approximate geometric predicates.
struct Tol {
  /// Absolute tolerance on distances (in units of the current working frame;
  /// algorithms normalize the smallest enclosing circle to radius 1).
  double dist = 1e-9;
  /// Absolute tolerance on angles, in radians.
  double ang = 1e-9;
};

/// The library-wide default tolerance.
inline constexpr Tol kDefaultTol{};

/// True when |a - b| is within the distance tolerance.
inline bool distEq(double a, double b, const Tol& tol = kDefaultTol) {
  return std::fabs(a - b) <= tol.dist;
}

}  // namespace apf::geom

#pragma once

/// \file view.h
/// Local views and the max-view ordering (Suzuki-Yamashita machinery).
///
/// The local view Z_r of robot r (paper §2) is the multiset of robot
/// positions in the polar coordinate system centered at c(P), with r at
/// (1, 0), taken with the orientation (cw or ccw) that lexicographically
/// maximizes the sorted coordinate sequence. Views are the anonymous,
/// orientation-free total preorder the algorithms use to break ties.
///
/// Numeric discipline: view coordinates are quantized to an integer grid
/// (kViewQuantum = 1e-6 resolution) before comparison, making view equality
/// and ordering exact, transitive, and hashable. Configurations produced by
/// the simulator keep static robots bit-stable, so symmetric twins quantize
/// identically while genuinely distinct geometry differs by far more than
/// the grid step.

#include <cstdint>
#include <span>
#include <vector>

#include "config/configuration.h"

namespace apf::config {

/// Quantization step for view coordinates. Coarse enough that independent
/// arithmetic paths producing the "same" value (mirrored frames, re-derived
/// SEC centers) agree after rounding, fine enough that genuinely distinct
/// geometry (point separations >= 1e-3 throughout the library) differs.
inline constexpr double kViewQuantum = 1e-6;

/// Quantize a real coordinate onto the view grid.
std::int64_t viewQuantize(double x);

/// A robot's local view.
struct View {
  /// Flattened (theta, rho, multiplicity) triples of all distinct points,
  /// sorted ascending, quantized. Empty when atCenter.
  std::vector<std::int64_t> key;
  /// +1 when only ccw maximizes, -1 when only cw maximizes, 0 when both
  /// orientations give the same view (r lies on an axis of symmetry of P).
  int orientation = 0;
  /// True when the robot sits exactly at the view center; such a robot's
  /// view is defined as strictly greater than every other view.
  bool atCenter = false;

  bool operator==(const View&) const = default;
};

/// Three-way comparison: -1 when a < b, 0 when equal, +1 when a > b.
int compareViews(const View& a, const View& b);

/// Local view of robot index i around `center`, with multiplicities counted
/// when `withMultiplicity` (robots without multiplicity detection see
/// distinct points only; counts are forced to 1).
View localView(const Configuration& p, std::size_t i, Vec2 center,
               bool withMultiplicity = false,
               const Tol& tol = geom::kDefaultTol);

/// Views of every robot (same parameters as localView).
std::vector<View> allViews(const Configuration& p, Vec2 center,
                           bool withMultiplicity = false,
                           const Tol& tol = geom::kDefaultTol);

/// The views of every robot as far as ordering them needs: compareViews
/// on any two of them, and byViewDescending on all of them, answer as on
/// allViews(p, center, withMultiplicity, tol). A key starts with its head,
/// its first (rho, theta, count) triple, and two keys whose heads differ
/// compare as their heads do. So a robot whose head no other robot shares
/// gets that triple alone as its key (and orientation 0, not computed);
/// only the robots whose heads tie get their full views, and only those
/// count in GeomCacheCounters::viewsBuilt.
std::vector<View> headFirstViews(const Configuration& p, Vec2 center,
                                 bool withMultiplicity = false,
                                 const Tol& tol = geom::kDefaultTol);

/// Indices sorted by view descending (greatest view first); views[i] is
/// robot i's. Ties keep index order (stable).
std::vector<std::size_t> byViewDescending(const std::vector<View>& views);

/// Indices of the robots whose view is maximal (the first tie class of
/// byViewDescending(allViews(p, center, ...))).
std::vector<std::size_t> maxViewRobots(const Configuration& p, Vec2 center,
                                       bool withMultiplicity = false,
                                       const Tol& tol = geom::kDefaultTol);

/// The robots of `subset` whose view is maximal among the subset's views,
/// in subset order. Groups p once and builds subset.size() views.
std::vector<std::size_t> maxViewRobots(const Configuration& p,
                                       std::span<const std::size_t> subset,
                                       Vec2 center,
                                       bool withMultiplicity = false,
                                       const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config

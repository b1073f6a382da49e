#pragma once

/// \file rays.h
/// Helpers over the half-lines H_c(M) from a center through robot positions
/// (paper §2 notation: alpha_min).

#include <optional>
#include <span>
#include <vector>

#include "config/configuration.h"

namespace apf::config {

/// One robot's ray direction (in [0, 2pi)) around a center.
struct DirEntry {
  double angle;
  std::size_t index;
};

/// The robots of `subset` as (direction, index) entries sorted by direction
/// around c; nullopt when a robot coincides with c or two share a ray.
std::optional<std::vector<DirEntry>> sortedDirections(
    const Configuration& p, std::span<const std::size_t> subset, Vec2 c,
    const Tol& tol = geom::kDefaultTol);

/// Direction angles (deduplicated, sorted, in [0, 2pi)) of the half-lines
/// from c through the points of m. Points within tol of c are skipped.
std::vector<double> rayDirections(const Configuration& m, Vec2 c,
                                  const Tol& tol = geom::kDefaultTol);

/// alpha_min,c(M): the minimum angle between two distinct half-lines of
/// H_c(M). Returns 2*pi when fewer than two rays exist.
double alphaMin(const Configuration& m, Vec2 c,
                const Tol& tol = geom::kDefaultTol);

/// alphaMin(m', c, tol) for m' = m with point i moved to `to`, bit for bit,
/// without building m': m's polar table at c with entry i recomputed.
double alphaMinMoved(const Configuration& m, std::size_t i, Vec2 to, Vec2 c,
                     const Tol& tol = geom::kDefaultTol);

/// alpha_min,c(p, M): the minimum non-null angle between the ray of p and
/// the rays of M's points. Returns 2*pi when undefined.
double alphaMinAt(Vec2 p, const Configuration& m, Vec2 c,
                  const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config

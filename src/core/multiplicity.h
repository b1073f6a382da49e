#pragma once

/// \file multiplicity.h
/// Appendix C: forming patterns whose CENTER is a multiplicity point.
///
/// A point of multiplicity at c(F) cannot be targeted directly (robots
/// descending to the exact center would destroy every angular reference),
/// so the algorithm first forms F~ — the pattern with the center points
/// relocated to g_F, the midpoint between c(F) and the max-view non-center
/// point — and then the robots gathered at g_F walk down the ray to the
/// center. Robots recognize the hand-off state obliviously: the m innermost
/// robots sit on one ray and the remaining robots already form
/// F - {(c(F), m)}.
///
/// The degenerate "gather everyone at one point" pattern (all n points
/// equal) is out of scope, as is starting FROM configurations with
/// multiplicity: the paper defers both to the open ASYNC-scattering problem
/// (§5).

#include <optional>

#include "config/configuration.h"
#include "sim/algorithm.h"

namespace apf::core {

class Analysis;

/// Analysis of a pattern with center multiplicity.
struct CenterMultiplicity {
  /// Number of pattern points at the center (>= 2).
  int count = 0;
  /// Normalized pattern with the center points relocated to g_F.
  config::Configuration fTilde;
  /// Normalized original pattern.
  config::Configuration fOriginal;
};

/// Detects center multiplicity in the (raw) pattern. Returns nullopt when
/// the pattern has no multiplicity at its center, or when ALL points are at
/// one spot (gathering — unsupported, see above). A pure function of the
/// pattern: runs with multiplicity detection read it from the pattern's
/// cached PatternInfo::centerMultiplicity.
std::optional<CenterMultiplicity> analyzeCenterMultiplicity(
    const config::Configuration& pattern,
    const geom::Tol& tol = geom::kDefaultTol);

/// The final gather move: when the m innermost robots sit on one ray and
/// the rest of P forms F minus the center points, the innermost robots walk
/// to the (mapped) center. Works in the normalized frame of `a`.
std::optional<sim::Action> centerGatherMove(Analysis& a,
                                            const CenterMultiplicity& cm);

}  // namespace apf::core

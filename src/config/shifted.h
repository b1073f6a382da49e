#pragma once

/// \file shifted.h
/// epsilon-shifted-m-regular sets (paper Definition 3, Theorem 1).
///
/// P contains an eps-shifted-m-regular set when replacing one robot r by a
/// position r' on the same circle yields a configuration P' whose regular
/// set reg(P') contains r', with (a) angmin(r, c, r') = eps * alphamin(P'),
/// 0 < eps <= 1/4, (b) alphamin(r, P) < alphamin(r', P'), and (c) r and r'
/// at the minimum distance from the center among all robots.
///
/// Detection strategy: candidate generation + exact verification.
/// Candidates for r are the robots at the innermost distance ring; for each,
/// candidate vacant-ray directions theta_v are proposed by reducing every
/// other robot's direction modulo a hypothesized equiangular family step
/// (this covers bi-angled grids too, whose rays split into two equiangular
/// families). Each candidate r' = c + |r-c| * e^{i theta_v} is then verified
/// *exactly* by running the full Definition-2 machinery on P' and checking
/// conditions (a)-(c); only verified candidates are reported, so the
/// heuristic generation can only cause false negatives, never false
/// positives — and on configurations the algorithms actually produce it is
/// exhaustive (tested). The search verifies at most 64 candidates; on
/// configurations without a shifted set that cap is mostly spent on
/// family-order-2 singletons (one robot roughly opposite r), which the
/// pre-rejection of the verification turns down.
///
/// A certificate pass runs first. One O(n^2) scan per candidate robot
/// bounds every vacancy proposal's shift against alphamin(P - {r}); the
/// whole and pair candidates, generated as the search would, go through
/// the verification's pre-rejection alone. Where that proves that every
/// candidate the search would verify (within its cap) is rejected, the
/// pass returns nullopt without verifying anything, and on asymmetric
/// configurations without proposing or sorting (counted in
/// GeomCacheCounters::shiftCertified). Otherwise the search runs as
/// described, so the result is always the search's.

#include <optional>

#include "config/regular.h"

namespace apf::config {

/// A detected shifted regular set.
struct ShiftedSetInfo {
  /// reg(P'): the associated regular set, indices valid in P' (see below);
  /// kept mainly for its grid.
  geom::AngularGrid grid;
  bool biangular = false;
  /// Indices in P of the robots of the *shifted* regular set reg(P)
  /// (= reg(P') with r' replaced by r), ordered by grid ray.
  std::vector<std::size_t> indices;
  /// Index in P of the shifted robot r.
  std::size_t shiftedRobot = 0;
  /// The associated position r' (on the vacant grid ray, same circle as r).
  Vec2 associatedPos;
  /// The shift eps in (0, 1/4].
  double epsilon = 0.0;
  /// alphamin(P') — the unit in which the shift is measured; needed by the
  /// election algorithm to compute target positions for new shifts.
  double alphaMinPPrime = 0.0;
  /// True when reg(P') is the entire P'.
  bool wholeConfig = false;
};

/// Definition 3 detection. Returns the unique shifted set (Theorem 1
/// guarantees uniqueness for n >= 7) or nullopt.
std::optional<ShiftedSetInfo> shiftedRegularSetOf(
    const Configuration& p, const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config

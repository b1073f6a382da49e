#pragma once

/// \file analysis.h
/// Shared per-activation analysis of the observed configuration: the robot
/// normalizes its snapshot (C(P) = C(F) = unit circle at the origin of its
/// local frame), then derives centers, views, regular/shifted sets, and the
/// selected robot. Everything here is deterministic and frame-covariant, so
/// all robots observing the same instant agree on the analysis.

#include <optional>
#include <vector>

#include "config/configuration.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "config/view.h"
#include "core/pattern_info.h"
#include "sim/algorithm.h"

namespace apf::core {

using config::Configuration;
using geom::Vec2;

/// Analysis context built once per Compute call.
class Analysis {
 public:
  /// Builds the context from a snapshot. `ok()` is false when the snapshot
  /// is degenerate (all robots coincident, pattern degenerate).
  explicit Analysis(const sim::Snapshot& snap);

  bool ok() const { return ok_; }

  /// Normalized robots / pattern (unit SEC at origin). F() is the cached
  /// PatternInfo's and, like every F-side accessor, requires ok().
  const Configuration& P() const { return p_; }
  const Configuration& F() const { return pinfo_->f; }
  std::size_t self() const { return self_; }
  bool multiplicity() const { return multiplicity_; }

  /// Transform mapping normalized coordinates back to the robot's local
  /// frame (for building output paths).
  const geom::Similarity& denormalize() const { return denorm_; }

  /// c(P): the shifted/regular set's center when one exists (the paper's
  /// c(P) extended to shifted configurations, which the descent phase of
  /// the election requires), else the SEC center.
  Vec2 centerP();
  /// c(F): F is normalized, but a regular pattern's grid center may differ
  /// from the origin.
  Vec2 centerF() const { return pinfo_->centerF; }

  /// l_F: distance of the second-closest ring of F to c(F).
  double lF();

  /// reg(P) / shifted set of P (cached).
  const std::optional<config::RegularSetInfo>& regularSet();
  const std::optional<config::ShiftedSetInfo>& shiftedSet();

  /// The selected robot (paper: r in D(l_F / 2), no other robot strictly
  /// inside D(2 |r|)), or nullopt. Unique when it exists.
  std::optional<std::size_t> selectedRobot();

  /// Views of P around centerP (no multiplicity weighting unless the run
  /// has multiplicity detection), as config::headFirstViews builds them:
  /// for compareViews only, since a robot whose head no other shares gets
  /// that head alone as its key. When centerP is the SEC center and the
  /// run has no multiplicity detection, these are exactly the views
  /// regularSet() reads, and the two share one table.
  const std::vector<config::View>& viewsP();

  /// Max-view robots of P: config::maxViewRobots(P(), centerP(),
  /// multiplicity()), with views built only for the robots whose first view
  /// coordinate can be the greatest (see the proof at the definition).
  std::vector<std::size_t> maxViewP();
  /// Max-view non-holders of F (cached per pattern). This and the F-side
  /// accessors below require ok(); degenerate snapshots keep the analysis
  /// unusable (selectedRobot() and lF() degrade gracefully instead).
  const std::vector<std::size_t>& maxViewNonHoldersF() {
    return patternInfo().maxViewNonHolders;
  }
  /// F().without(maxViewNonHoldersF()[k]), with its circle computed.
  const Configuration& fWithout(std::size_t k) const {
    return pinfo_->fWithout[k];
  }

  /// The cached pattern-side analysis (l_F, f_s, fmax, circles, ...).
  const PatternInfo& patternInfo() const { return *pinfo_; }

  /// radii()[i] is robot i's distance from the origin, the normalized SEC
  /// center: P()'s polar table there.
  const std::vector<double>& radii() const { return p_.polar(Vec2{}).radius; }

  /// config::similar(P(), F(), tol), skipped when the radii rule it out.
  bool similarToF(const geom::Tol& tol);
  /// config::findSimilarity(fWithout(k), P().without(r), true, tol),
  /// skipped when the radii rule it out. P().without(r) is built once.
  std::optional<geom::Similarity> matchWithout(std::size_t r, std::size_t k,
                                               const geom::Tol& tol);

 private:
  bool ok_ = false;
  Configuration p_;
  std::size_t self_ = 0;
  bool multiplicity_ = false;
  geom::Similarity denorm_;

  std::optional<Vec2> centerP_;
  bool regularComputed_ = false;
  std::optional<config::RegularSetInfo> regular_;
  bool shiftedComputed_ = false;
  std::optional<config::ShiftedSetInfo> shifted_;
  bool selectedComputed_ = false;
  std::optional<std::size_t> selected_;
  bool centerIsSec_ = false;  ///< centerP_ is p_.sec().center
  /// headFirstViews(p_, p_.sec().center) when built: regularSetOf's views,
  /// and viewsP() when centerIsSec_ and !multiplicity_.
  std::vector<config::View> secViews_;
  std::optional<std::vector<config::View>> viewsP_;  ///< viewsP() otherwise
  const PatternInfo* pinfo_ = nullptr;
  std::vector<double> sortedRadii_;  ///< radii() ascending, built on demand
  std::optional<Configuration> pWithout_;  ///< P().without(pWithoutOf_)
  std::size_t pWithoutOf_ = 0;

  const std::vector<double>& sortedRadii();
};

}  // namespace apf::core

#include "core/analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "config/rays.h"
#include "config/similarity.h"
#include "core/phases.h"
#include "geom/sec.h"

namespace apf::core {

const char* phaseName(int tag) {
  switch (tag) {
    case kStay: return "stay";
    case kTerminal: return "terminal";
    case kFinalMove: return "final-move";
    case kRsbShifted: return "rsb-shifted";
    case kRsbElection: return "rsb-election";
    case kRsbAsymmetric: return "rsb-asymmetric";
    case kRsbPartial: return "rsb-partial";
    case kDpfCoord: return "dpf-coord";
    case kDpfNullAngle: return "dpf-null-angle";
    case kDpfFixCircle: return "dpf-fix-circle";
    case kDpfClean: return "dpf-clean";
    case kDpfLocate: return "dpf-locate";
    case kDpfRemove: return "dpf-remove";
    case kDpfRotate: return "dpf-rotate";
    case kMultiplicity: return "multiplicity";
    case kBaseline: return "baseline";
  }
  return "?";
}

Analysis::Analysis(const sim::Snapshot& snap)
    : self_(snap.selfIndex), multiplicity_(snap.multiplicityDetection) {
  const geom::Circle cp = snap.robots.sec();
  const geom::Circle cf = snap.pattern.sec();
  if (cp.radius <= 1e-12 || cf.radius <= 1e-12 || snap.robots.size() < 2) {
    return;  // degenerate; algorithms stay still
  }
  const geom::Similarity np = snap.robots.normalizingTransform();
  p_ = snap.robots.transformed(np);
  denorm_ = np.inverse();
  pinfo_ = &PatternInfo::get(snap.pattern, multiplicity_);
  ok_ = true;
}

namespace {

/// Margin for rounding between the polar table and findSimilarity's own
/// radii, which it takes about the Welzl circle of P (or of P - {r}): that
/// circle is the unit circle at the origin only up to rounding.
constexpr double kRadiiMargin = 1e-9;

/// True when the ascending radii `p`, with its element `skip` left out
/// (skip >= p.size() keeps all), and the ascending radii `f` differ at some
/// rank by more than findSimilarity's radius bound plus kRadiiMargin. Then
/// findSimilarity's own radius check rejects too, and it returns nullopt.
bool radiiApart(const std::vector<double>& p, std::size_t skip,
                const std::vector<double>& f, const geom::Tol& tol) {
  const std::size_t kept = p.size() - (skip < p.size() ? 1 : 0);
  if (kept != f.size()) return false;  // findSimilarity decides
  const double bound = 2.0 * tol.dist + 1e-12 + kRadiiMargin;
  for (std::size_t i = 0, j = 0; i < p.size(); ++i) {
    if (i == skip) continue;
    if (std::fabs(p[i] - f[j++]) > bound) return true;
  }
  return false;
}

}  // namespace

const std::vector<double>& Analysis::sortedRadii() {
  if (sortedRadii_.empty()) {
    sortedRadii_ = radii();
    std::sort(sortedRadii_.begin(), sortedRadii_.end());
  }
  return sortedRadii_;
}

bool Analysis::similarToF(const geom::Tol& tol) {
  // The normalized P's SEC is the unit circle at the origin, so the table
  // radii are findSimilarity's P-side radii up to rounding, and F() is the
  // cached pattern, whose radii are pinfo_->radii.
  if (radiiApart(sortedRadii(), p_.size(), pinfo_->radii, tol)) return false;
  return config::similar(p_, F(), tol);
}

std::optional<geom::Similarity> Analysis::matchWithout(std::size_t r,
                                                       std::size_t k,
                                                       const geom::Tol& tol) {
  // A robot strictly inside C(P) lies inside SEC(P - {r}), so
  // SEC(P - {r}) = C(P) and the table radii without r's are again
  // findSimilarity's radii up to rounding. A robot on (or near) C(P) may
  // shrink the circle when it leaves: no shortcut then.
  if (radii()[r] < 1.0 - 1e-6) {
    const auto& sorted = sortedRadii();
    const std::size_t skip =
        std::lower_bound(sorted.begin(), sorted.end(), radii()[r]) -
        sorted.begin();
    if (radiiApart(sorted, skip, pinfo_->fWithoutRadii[k], tol)) {
      return std::nullopt;
    }
  }
  if (!pWithout_ || pWithoutOf_ != r) {
    pWithout_ = p_.without(r);
    pWithoutOf_ = r;
  }
  return config::findSimilarity(fWithout(k), *pWithout_, true, tol);
}

Vec2 Analysis::centerP() {
  if (!centerP_) {
    // Once a selected robot exists (the DPF regime) the configuration is
    // kept asymmetric and every distance is SEC-centered; skip the
    // expensive regular/shifted detection entirely.
    if (selectedRobot()) {
      centerP_ = Vec2{};
    } else if (shiftedSet()) {
      centerP_ = shifted_->grid.center;
    } else if (regularSet() && regular_->wholeConfig) {
      centerP_ = regular_->grid.center;
    } else {
      centerP_ = p_.sec().center;  // normalized: the origin
      centerIsSec_ = true;
    }
  }
  return *centerP_;
}

double Analysis::lF() {
  // Measured from the SEC center (origin of the normalized pattern): the
  // selected-robot predicate and every DPF radius use SEC-centered
  // distances so the RSB -> DPF handoff agrees on one center.
  return pinfo_ ? pinfo_->lF : 0.0;
}

const std::optional<config::RegularSetInfo>& Analysis::regularSet() {
  if (!regularComputed_) {
    regular_ = config::regularSetOf(p_, geom::kDefaultTol, &secViews_);
    regularComputed_ = true;
  }
  return regular_;
}

const std::optional<config::ShiftedSetInfo>& Analysis::shiftedSet() {
  if (!shiftedComputed_) {
    shifted_ = config::shiftedRegularSetOf(p_);
    shiftedComputed_ = true;
  }
  return shifted_;
}

std::optional<std::size_t> Analysis::selectedRobot() {
  if (selectedComputed_) return selected_;
  selectedComputed_ = true;
  if (!ok_) return selected_;
  // Radii about the SEC center of the normalized configuration. Another
  // robot lies strictly inside D(2 |r_i|) iff the smallest radius among the
  // others does: the others' minimum is the overall minimum, except for the
  // robot holding it, whose others' minimum is the second smallest.
  const double bound = lF() / 2.0;
  const std::vector<double>& radius = radii();
  std::size_t first = 0;
  for (std::size_t i = 1; i < radius.size(); ++i) {
    if (radius[i] < radius[first]) first = i;
  }
  double second = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < radius.size(); ++i) {
    if (i != first) second = std::min(second, radius[i]);
  }
  for (std::size_t i = 0; i < radius.size(); ++i) {
    const double ri = radius[i];
    if (ri >= bound - 1e-12) continue;
    const double others = (i == first) ? second : radius[first];
    if (!(others < 2.0 * ri - 1e-12)) {
      selected_ = i;
      break;
    }
  }
  return selected_;
}

const std::vector<config::View>& Analysis::viewsP() {
  const Vec2 c = centerP();
  if (centerIsSec_ && !multiplicity_) {
    if (secViews_.empty()) secViews_ = config::allViews(p_, c);
    return secViews_;
  }
  if (!viewsP_) viewsP_ = config::allViews(p_, c, multiplicity_);
  return *viewsP_;
}

std::vector<std::size_t> Analysis::maxViewP() {
  // Views are built only for candidates: a superset of the max-view class
  // M, so maxViewRobots over them returns M, in index order.
  //
  // A robot within tol.dist of the center has the atCenter view, greater
  // than any other; when one exists, the candidates are those robots.
  // Otherwise robot i's view key starts with its smallest rho,
  // viewQuantize(g / r_i), g being the least radius among the points
  // grouped() keeps (each group is placed at its first point). With minR
  // the least radius of all, g >= minR, and quantizing is monotone, so a
  // max-view robot, whose key is at least the innermost robot's, has
  // viewQuantize(g / r_i) == viewQuantize(g / minR) >= viewQuantize(1.0).
  // The innermost robot's group point lies within tol.dist of it, so g is
  // at most gMax (the 1e-12 relative margin covers rounding in the two
  // radii and their distance), and viewQuantize(gMax / r_i) is at least
  // viewQuantize(1.0) for every robot of M. A fixed radius window such as
  // minR + 1e-9 is not enough: radii up to about 5e-7 minR apart share
  // the first view coordinate.
  const Vec2 c = centerP();
  const geom::Tol& tol = geom::kDefaultTol;
  const std::vector<double>& radius = p_.polar(c).radius;
  const double minR = *std::min_element(radius.begin(), radius.end());
  const double gMax = minR + tol.dist + 1e-12 * (minR + tol.dist);
  const std::int64_t first = config::viewQuantize(1.0);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < p_.size(); ++i) {
    if (minR <= tol.dist ? radius[i] <= tol.dist
                         : config::viewQuantize(gMax / radius[i]) >= first) {
      candidates.push_back(i);
    }
  }
  if (candidates.size() == 1) return candidates;
  return config::maxViewRobots(p_, candidates, c, multiplicity_);
}

}  // namespace apf::core

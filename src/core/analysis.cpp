#include "core/analysis.h"

#include <cstring>
#include <limits>

#include "config/rays.h"
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
  f_ = snap.pattern.transformed(snap.pattern.normalizingTransform());
  denorm_ = np.inverse();
  pinfo_ = &PatternInfo::get(f_, multiplicity_);
  // Every robot receives the same raw pattern, so f_ is normally bit for
  // bit the cached pattern; then take the cached copy, whose circles are
  // already computed. A mismatch keeps the fresh f_.
  patternShared_ = pinfo_->f.size() == f_.size() &&
                   std::memcmp(pinfo_->f.points().data(), f_.points().data(),
                               f_.size() * sizeof(Vec2)) == 0;
  if (patternShared_) f_ = pinfo_->f;
  ok_ = true;
}

Configuration Analysis::fWithout(std::size_t k) const {
  if (patternShared_) return pinfo_->fWithout[k];
  return f_.without(pinfo_->maxViewNonHolders[k]);
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
    }
  }
  return *centerP_;
}

Vec2 Analysis::centerF() {
  if (!centerF_) centerF_ = config::centerOf(f_);
  return *centerF_;
}

double Analysis::lF() {
  // Measured from the SEC center (origin of the normalized pattern): the
  // selected-robot predicate and every DPF radius use SEC-centered
  // distances so the RSB -> DPF handoff agrees on one center.
  return pinfo_ ? pinfo_->lF : 0.0;
}

const std::optional<config::RegularSetInfo>& Analysis::regularSet() {
  if (!regularComputed_) {
    regular_ = config::regularSetOf(p_);
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
  const Vec2 c{};  // SEC center of the normalized configuration
  const double bound = lF() / 2.0;
  for (std::size_t i = 0; i < p_.size(); ++i) {
    const double ri = geom::dist(p_[i], c);
    if (ri >= bound - 1e-12) continue;
    bool alone = true;
    for (std::size_t j = 0; j < p_.size() && alone; ++j) {
      if (j == i) continue;
      if (geom::dist(p_[j], c) < 2.0 * ri - 1e-12) alone = false;
    }
    if (alone) {
      selected_ = i;
      break;
    }
  }
  return selected_;
}

const std::vector<config::View>& Analysis::viewsP() {
  if (!viewsP_) viewsP_ = config::allViews(p_, centerP(), multiplicity_);
  return *viewsP_;
}

std::vector<std::size_t> Analysis::maxViewP() {
  // A max-view robot is always on the innermost ring around the center:
  // view sequences start with the (innermost radius / own radius) ratio,
  // which is maximal (= 1, or the atCenter flag) exactly for ring members.
  const Vec2 c = centerP();
  double minR = std::numeric_limits<double>::infinity();
  for (const Vec2& q : p_.points()) minR = std::min(minR, geom::dist(q, c));
  std::vector<std::size_t> ring;
  for (std::size_t i = 0; i < p_.size(); ++i) {
    if (geom::dist(p_[i], c) <= minR + 1e-9) ring.push_back(i);
  }
  if (ring.size() == 1) return ring;
  std::vector<config::View> views;
  views.reserve(ring.size());
  for (std::size_t i : ring) {
    views.push_back(config::localView(p_, i, c, multiplicity_));
  }
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < ring.size(); ++k) {
    bool isMax = true;
    for (std::size_t l = 0; l < ring.size() && isMax; ++l) {
      if (config::compareViews(views[l], views[k]) > 0) isMax = false;
    }
    if (isMax) out.push_back(ring[k]);
  }
  return out;
}

}  // namespace apf::core

#include "core/dpf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "config/rays.h"
#include "core/moves.h"
#include "core/phases.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;
using sim::Action;

constexpr double kTol = 1e-9;
constexpr double kAngTol = 1e-7;
/// Hysteresis: movers stop within kAngTol of their targets, and phase
/// conditions accept anything within kDoneTol > kAngTol — otherwise a robot
/// parked exactly at the stopping boundary makes the "at target" predicate
/// flicker with per-frame normalization noise and robots disagree on the
/// current phase.
constexpr double kDoneTol = 5e-7;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A Planner's per-snapshot tables. One Planner runs at a time on a thread,
/// so every Planner on it reuses one set (cleared, capacity kept): a
/// steady-state Compute allocates nothing for them.
struct PlannerScratch {
  std::vector<double> z;  ///< Z-angle of p_i, once buildZ has run
  /// P' robots by (radius, index): every radius window is a run of it.
  std::vector<std::size_t> byRadius;
  /// One circle's robots in Z order (zSorted), and cleanExterior's movers.
  std::vector<std::size_t> circle, between;
  /// Working lists of clampGapOnC1 and of the C_1 dance.
  std::vector<double> c1Angles, withCandidate, gon;
};

/// A run of PlannerScratch::byRadius: robots in (radius, index) order.
using Run = std::span<const std::size_t>;

/// All geometry below is in the normalized frame: C(P) = C(F) = unit circle
/// at the origin, which is also the center used for every radius and angle.
/// Each robot's radius and argument (P's polar table at the origin) and its
/// Z-angle are computed once per snapshot and every rule reads them there.
class Planner {
 public:
  Planner(Analysis& a, std::size_t rs, PlannerScratch& scratch)
      : a_(a),
        p_(a.P()),
        polar_(p_.polar(Vec2{})),
        rs_(rs),
        pat_(a.patternInfo()),
        s_(scratch),
        fmaxRadius_(pat_.fmaxRadius),
        thetaFPrime_(pat_.thetaFPrime),
        circleRadii_(pat_.circleRadii),
        circleCounts_(pat_.circleCounts) {
    valid_ = pat_.valid && p_.size() == pat_.f.size();
  }

  bool valid() const { return valid_; }

  Action compute() {
    if (!valid_) return Action::stay(kStay);
    if (auto act = phase1()) return *act;
    buildZ();
    if (auto act = nullAngle()) return *act;
    if (auto act = fixEnclosing()) return *act;
    if (auto act = circles()) return *act;
    return rotate();
  }

 private:
  // ---------- shared helpers ----------

  double radius(std::size_t i) const { return polar_.radius[i]; }
  double arg(std::size_t i) const { return polar_.arg[i]; }
  bool isPrime(std::size_t i) const { return i != rs_; }

  /// Z-system angle of robot i (angle 0 on rmax's ray, orientation zSign_).
  double zAngle(std::size_t i) const { return s_.z[i]; }

  /// Arc on the robot's own circle from its current Z-angle to Z-angle
  /// `target`, staying inside the (0, 2pi) band (never crossing rmax's ray).
  geom::Path bandArc(std::size_t i, double targetZ) const {
    const double cur = zAngle(i);
    const double sweepZ = targetZ - cur;  // not wrapped: stays in the band
    return arcBySweep(Vec2{}, p_[i], zSign_ * sweepZ);
  }

  // ---------- phase 1: global coordinate system ----------

  /// The unique rmax candidate satisfying (i), (ii), (iv); nullopt if none
  /// or not unique.
  std::optional<std::size_t> findRmax() const {
    if (radius(rs_) <= kTol) return std::nullopt;  // rs at center
    const double rsArg = arg(rs_);
    double minRad = kInf, minAng = kInf;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i)) continue;
      minRad = std::min(minRad, radius(i));
      minAng = std::min(minAng, geom::angDist(arg(i), rsArg));
    }
    std::optional<std::size_t> cand;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i)) continue;
      const double ang = geom::angDist(arg(i), rsArg);
      if (geom::distEq(radius(i), minRad) &&
          std::fabs(ang - minAng) <= kAngTol &&
          2.0 * ang < thetaFPrime_ - kAngTol) {
        if (cand) return std::nullopt;  // not unique
        cand = i;
      }
    }
    return cand;
  }

  std::optional<Action> phase1() {
    const auto cand = findRmax();
    if (cand && radius(*cand) <= fmaxRadius_ + kTol) {
      rmax_ = *cand;
      return std::nullopt;  // phase complete
    }
    if (cand) {
      // Condition (iii): rmax descends radially to fmax's radius. When rmax
      // itself holds C(P) (e.g. after a whole-configuration election, where
      // every robot sits on one circle), its departure would SHRINK the
      // enclosing circle — the one invariant everything is scaled by. The
      // other boundary robots spread out first so C(P) survives.
      if (radius(*cand) >= 1.0 - 1e-7 && !secSafeWithout(*cand)) {
        return spreadBeforeDescent(*cand);
      }
      if (a_.self() == *cand) {
        return Action{radialPath(Vec2{}, p_[*cand], fmaxRadius_), kDpfCoord};
      }
      return Action::stay(kDpfCoord);
    }
    // No valid rmax: the selected robot repositions.
    if (a_.self() != rs_) return Action::stay(kDpfCoord);
    const Vec2 rsPos = p_[rs_];
    if (radius(rs_) > kTol) {
      // Walk to the exact center first (angles along the ray are invariant,
      // so the phase condition stays false during the walk).
      return Action{linePath(rsPos, Vec2{}), kDpfCoord};
    }
    // At the center: re-emerge at distance d on a ray close to the chosen
    // r0 so that r0 becomes the unique rmax.
    double minRad = kInf;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (isPrime(i)) minRad = std::min(minRad, radius(i));
    }
    std::size_t r0 = p_.size();
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (isPrime(i) && geom::distEq(radius(i), minRad)) {
        if (r0 == p_.size() ||
            config::compareViews(a_.viewsP()[i], a_.viewsP()[r0]) > 0) {
          r0 = i;
        }
      }
    }
    if (r0 == p_.size()) return Action::stay(kDpfCoord);
    double minGap = kPi;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == r0 || radius(i) <= kTol) continue;
      const double g = geom::angDist(arg(i), arg(r0));
      // Robots exactly on r0's ray (parked radially below it) do not
      // constrain the placement: they are at larger radii, so condition (i)
      // already rules them out as rmax candidates.
      if (g > kAngTol) minGap = std::min(minGap, g);
    }
    const double phi = 0.25 * std::min({thetaFPrime_, minGap, kPi});
    const double d = std::min(a_.lF(), minRad) / 2.0;
    const double ang = arg(r0) - phi;
    return Action{linePath(rsPos, Vec2{std::cos(ang), std::sin(ang)} * d),
                  kDpfCoord};
  }

  /// True when the robots on C(P) other than `skip` still hold the circle:
  /// no angular gap among them exceeds pi.
  bool secSafeWithout(std::size_t skip) const {
    std::vector<double> angs;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (i == skip || radius(i) < 1.0 - 1e-7) continue;
      angs.push_back(polar_.dir[i]);
    }
    if (angs.size() < 2) return false;
    std::sort(angs.begin(), angs.end());
    double maxGap = angs.front() + kTwoPi - angs.back();
    for (std::size_t k = 1; k < angs.size(); ++k) {
      maxGap = std::max(maxGap, angs[k] - angs[k - 1]);
    }
    return maxGap <= kPi - 1e-6;
  }

  /// Pre-descent stabilization: the two boundary robots flanking the
  /// largest gap (computed WITHOUT rmax) arc symmetrically into it until no
  /// gap exceeds pi. The rule is mirror-covariant — in a reflected frame
  /// the gap's endpoints swap roles and order the same world movement — so
  /// it needs no chirality. Targets keep clear of r_s's and rmax's rays so
  /// the phase-1 conditions (rmax unique, angularly closest to r_s) hold.
  Action spreadBeforeDescent(std::size_t rmaxIdx) {
    struct Entry {
      double ang;
      std::size_t idx;
    };
    std::vector<Entry> ring;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == rmaxIdx || radius(i) < 1.0 - 1e-7) continue;
      ring.push_back({polar_.dir[i], i});
    }
    if (ring.size() < 2) return Action::stay(kDpfCoord);
    std::sort(ring.begin(), ring.end(),
              [](const Entry& a, const Entry& b) { return a.ang < b.ang; });
    const std::size_t m = ring.size();
    // Largest gap: runs counterclockwise from ring[g] to ring[(g+1) % m].
    std::size_t g = m - 1;
    double maxGap = ring.front().ang + kTwoPi - ring.back().ang;
    for (std::size_t k = 0; k + 1 < m; ++k) {
      const double gap = ring[k + 1].ang - ring[k].ang;
      if (gap > maxGap) {
        maxGap = gap;
        g = k;
      }
    }
    const double margin = 1e-3;
    if (maxGap <= kPi - margin) return Action::stay(kDpfCoord);
    const std::size_t iA = ring[g].idx;               // gap starts here (ccw)
    const std::size_t iB = ring[(g + 1) % m].idx;     // gap ends here
    if (a_.self() != iA && a_.self() != iB) return Action::stay(kDpfCoord);

    // The mover steps into the gap by up to half the excess, limited by the
    // gap opening up behind it.
    const double excess = maxGap - (kPi - margin);
    double back;  // the mover's gap on its other side
    double dir;   // +1: ccw into the gap (A), -1: cw into the gap (B)
    if (a_.self() == iA) {
      const std::size_t prev = (g + m - 1) % m;
      back = geom::norm2pi(ring[g].ang - ring[prev].ang);
      dir = 1.0;
    } else {
      const std::size_t next = (g + 2) % m;
      back = geom::norm2pi(ring[next].ang - ring[(g + 1) % m].ang);
      dir = -1.0;
    }
    double delta =
        0.5 * std::min(excess, (kPi - margin) - back);
    if (delta <= 1e-9) return Action::stay(kDpfCoord);

    // Keep clear of r_s's ray (condition ii: rmax stays angularly closest)
    // and rmax's ray (strict ray ordering).
    const double myAng = polar_.dir[a_.self()];
    const double rsRay = polar_.dir[rs_];
    const double rmaxRay = polar_.dir[rmaxIdx];
    const double rsZone =
        2.0 * geom::angDist(rmaxRay, rsRay) + 1e-4;
    for (double frac : {1.0, 0.5, 0.25, 0.1}) {
      const double t = geom::norm2pi(myAng + dir * delta * frac);
      if (geom::angDist(t, rsRay) > rsZone &&
          geom::angDist(t, rmaxRay) > 1e-4) {
        return Action{arcBySweep(Vec2{}, p_[a_.self()], dir * delta * frac),
                      kDpfCoord};
      }
    }
    return Action::stay(kDpfCoord);
  }

  void buildZ() {
    zTheta0_ = arg(*rmax_);
    const double rel = geom::norm2pi(arg(rs_) - zTheta0_);
    if (std::min(rel, kTwoPi - rel) > 1e-6) {
      // Generic case: the orientation that maximizes r_s's angular
      // coordinate (the paper's rule).
      zSign_ = (rel >= kTwoPi - rel) ? 1.0 : -1.0;
    } else {
      // r_s sits (numerically) on rmax's ray: the rel-based rule would flip
      // with per-frame noise. Fall back to rmax's view orientation, which
      // is quantized and frame-stable; when even that is 0 the
      // configuration is mirror-symmetric about the ray and both
      // orientations are equivalent.
      const auto v = config::localView(p_, *rmax_, Vec2{});
      zSign_ = (v.orientation >= 0) ? 1.0 : -1.0;
    }
    // The Z-angles depend on zSign_, so they are filled only now.
    const std::size_t n = p_.size();
    s_.z.clear();
    for (std::size_t i = 0; i < n; ++i) {
      double ang = 0.0;
      if (radius(i) > kTol) {
        ang = geom::norm2pi(zSign_ * (arg(i) - zTheta0_));
        if (ang > kTwoPi - kAngTol) ang = 0.0;
      }
      s_.z.push_back(ang);
    }
    // The carried table's (radius, index) order, without r_s.
    s_.byRadius.clear();
    for (std::size_t i : polar_.byRadius) {
      if (isPrime(i)) s_.byRadius.push_back(i);
    }
  }

  // ---------- null-angle pre-phase ----------

  std::optional<Action> nullAngle() {
    std::vector<std::size_t> null;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == *rmax_) continue;
      if (zAngle(i) <= kAngTol) null.push_back(i);
    }
    if (null.empty()) return std::nullopt;
    double minPos = kPi;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == *rmax_) continue;
      const double zi = zAngle(i);
      if (zi > kAngTol) minPos = std::min(minPos, zi);
    }
    const double target = minPos / 2.0;
    if (std::find(null.begin(), null.end(), a_.self()) != null.end()) {
      return Action{bandArc(a_.self(), target), kDpfNullAngle};
    }
    return Action{geom::Path{}, kDpfNullAngle};
  }

  // ---------- circle membership helpers ----------

  bool onCircle(std::size_t i, std::size_t ci) const {
    return geom::distEq(radius(i), circleRadii_[ci]);
  }

  /// A radius x is below the circle of radius r, or above it, when it is
  /// more than kTol away on that side; onCircle holds exactly when neither
  /// does. Both differences round monotonically in x, so the robots below
  /// a circle are a prefix of byRadius, those above it a suffix, and its
  /// robots the run between.
  static bool belowCircle(double x, double r) { return r - x > kTol; }
  static bool aboveCircle(double x, double r) { return x - r > kTol; }

  /// The P' robots on circle ci, in (radius, index) order.
  Run circleRun(std::size_t ci) const {
    const double r = circleRadii_[ci];
    const std::size_t* b = s_.byRadius.data();
    const std::size_t* e = b + s_.byRadius.size();
    const std::size_t* first = std::partition_point(
        b, e, [&](std::size_t i) { return belowCircle(radius(i), r); });
    const std::size_t* last = std::partition_point(
        first, e, [&](std::size_t i) { return !aboveCircle(radius(i), r); });
    return {first, last};
  }

  /// The run's robots sorted by Z-angle ascending, exactly as a scan over
  /// all robots and one std::sort produced them: index order first, since
  /// under ties within kAngTol the comparator is not a strict weak order
  /// and only the same input gives the same output. The index tiebreak
  /// keeps merged robots (identical positions under multiplicity)
  /// deterministically ordered — they are interchangeable, so any
  /// consistent order is sound.
  const std::vector<std::size_t>& zSorted(Run run) const {
    std::vector<std::size_t>& out = s_.circle;
    out.assign(run.begin(), run.end());
    std::sort(out.begin(), out.end());
    std::sort(out.begin(), out.end(), [&](std::size_t x, std::size_t y) {
      const double ax = zAngle(x), ay = zAngle(y);
      if (std::fabs(ax - ay) > kAngTol) return ax < ay;
      return x < y;
    });
    return out;
  }

  const std::vector<double>& targetsOnCircle(std::size_t ci) const {
    return pat_.circleTargets[ci];
  }

  /// Parking move: robot i steps radially inward without reaching another
  /// robot's circle nor the circle of radius `floor`.
  Action parkInward(std::size_t i, double floor, int tag) const {
    double inner = floor;
    for (std::size_t j = 0; j < p_.size(); ++j) {
      if (j == i) continue;
      const double rj = radius(j);
      if (rj < radius(i) - kTol) inner = std::max(inner, rj);
    }
    return Action{radialPath(Vec2{}, p_[i], (radius(i) + inner) / 2.0), tag};
  }

  Action stepOutward(std::size_t i, double ceiling, int tag) const {
    double outer = ceiling;
    for (std::size_t j = 0; j < p_.size(); ++j) {
      if (j == i) continue;
      const double rj = radius(j);
      if (rj > radius(i) + kTol) outer = std::min(outer, rj);
    }
    return Action{radialPath(Vec2{}, p_[i], (radius(i) + outer) / 2.0), tag};
  }

  bool sharesCircle(std::size_t i) const {
    for (std::size_t j = 0; j < p_.size(); ++j) {
      if (j != i && geom::distEq(radius(j), radius(i))) return true;
    }
    return false;
  }

  /// Clamp a C1 move so the largest angular gap among C(P) boundary robots
  /// stays below pi (C(P) preservation). Returns the adjusted target angle.
  double clampGapOnC1(std::size_t mover, double targetZ) const {
    // Collect the Z-angles of all robots on C1 except the mover.
    std::vector<double>& angs = s_.c1Angles;
    angs.clear();
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (i != mover && geom::distEq(radius(i), 1.0)) {
        angs.push_back(zAngle(i));
      }
    }
    if (angs.size() < 2) return zAngle(mover);  // cannot move at all
    const double cur = zAngle(mover);
    // Binary search along [cur, targetZ] for the farthest safe position.
    auto safe = [&](double candidate) {
      std::vector<double>& all = s_.withCandidate;
      all.assign(angs.begin(), angs.end());
      all.push_back(candidate);
      std::sort(all.begin(), all.end());
      double maxGap = all.front() + kTwoPi - all.back();
      for (std::size_t k = 1; k < all.size(); ++k) {
        maxGap = std::max(maxGap, all[k] - all[k - 1]);
      }
      return maxGap <= kPi - 1e-9;
    };
    if (safe(targetZ)) return targetZ;
    double lo = 0.0, hi = 1.0;  // fraction of the way to target
    for (int it = 0; it < 50; ++it) {
      const double mid = (lo + hi) / 2.0;
      if (safe(cur + (targetZ - cur) * mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return cur + (targetZ - cur) * lo;
  }

  // ---------- fixEnclosingCircle (|C(F) cap F'| = 2) ----------

  std::optional<Action> fixEnclosing() {
    if (circleCounts_.empty() || circleCounts_[0] != 2 ||
        !geom::distEq(circleRadii_[0], 1.0)) {
      return std::nullopt;  // special case does not apply
    }
    const auto& tgt = targetsOnCircle(0);  // two diametral angles, sorted
    const Run run = circleRun(0);
    const auto& onC1 = zSorted(run);
    // Condition: exactly two robots, at the two targets (kDoneTol: looser
    // than the movers' stopping threshold, see hysteresis note above).
    if (onC1.size() == 2 &&
        std::fabs(zAngle(onC1[0]) - tgt[0]) <= kDoneTol &&
        std::fabs(zAngle(onC1[1]) - tgt[1]) <= kDoneTol) {
      return std::nullopt;
    }
    if (onC1.size() == 2) {
      // Pull a third robot (the greatest interior one) out to C1 so the two
      // can maneuver without breaking C(P).
      const std::size_t mover = greatestStrictlyInside(0);
      if (mover == p_.size()) return std::nullopt;  // nobody to pull
      return std::optional<Action>(
          pullOntoCircle(mover, 0, run, kDpfFixCircle));
    }
    // >= 3 robots on C1: greatest -> larger target, smallest -> smaller
    // target, middles evenly between; once the two ends are placed, excess
    // robots (second smallest first) leave inward.
    const std::size_t rBig = onC1.back();
    const std::size_t rSmall = onC1.front();
    const bool endsPlaced =
        std::fabs(zAngle(rBig) - tgt[1]) <= kDoneTol &&
        std::fabs(zAngle(rSmall) - tgt[0]) <= kDoneTol;
    if (endsPlaced) {
      const std::size_t mover = onC1[1];  // second smallest
      if (a_.self() == mover) {
        return std::optional<Action>(parkInward(
            mover, circleRadii_.size() > 1 ? circleRadii_[1] : 0.0,
            kDpfFixCircle));
      }
      return std::optional<Action>(Action::stay(kDpfFixCircle));
    }
    // Assign targets along C1.
    if (a_.self() != rBig && a_.self() != rSmall &&
        (std::find(onC1.begin(), onC1.end(), a_.self()) == onC1.end())) {
      return std::optional<Action>(Action::stay(kDpfFixCircle));
    }
    double myTarget;
    if (a_.self() == rBig) {
      myTarget = tgt[1];
    } else if (a_.self() == rSmall) {
      myTarget = tgt[0];
    } else {
      const auto it = std::find(onC1.begin(), onC1.end(), a_.self());
      const std::size_t rank = it - onC1.begin();  // 1..size-2
      myTarget = tgt[0] + (tgt[1] - tgt[0]) * static_cast<double>(rank) /
                              static_cast<double>(onC1.size() - 1);
    }
    return std::optional<Action>(
        moveOnCircleBlocked(a_.self(), 0, myTarget, kDpfFixCircle));
  }

  std::size_t greatestStrictlyInside(std::size_t ci) const {
    std::size_t best = p_.size();
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i)) continue;
      if (radius(i) < circleRadii_[ci] - kTol) {
        if (best == p_.size() || zOrderLess(best, i)) best = i;
      }
    }
    return best;
  }

  /// Deterministic, frame-covariant jitter in [0, 1): distinct robot
  /// positions map to distinct values. Staging angles are salted with this
  /// so two movers racing on stale ASYNC snapshots (both believing they are
  /// "the" mover) never compute the same landing angle — the deterministic
  /// collision channel of the circle-placement phase.
  double positionSalt(std::size_t i) const {
    const double x =
        std::sin(zAngle(i) * 127.1 + radius(i) * 311.7) * 43758.5453;
    return x - std::floor(x);
  }

  bool zOrderLess(std::size_t x, std::size_t y) const {
    const double ax = zAngle(x), ay = zAngle(y);
    if (std::fabs(ax - ay) > kAngTol) return ax < ay;
    return radius(x) < radius(y);
  }

  /// locateEnoughRobots-style move of `mover` onto circle ci, whose robots
  /// are onCi: step off a shared circle, slide below the circle's occupied
  /// angles, then move radially outward.
  ///
  /// Only the least Z-angle is read, and its bits do not depend on the
  /// order onCi lists the robots in: past nullAngle every P' robot but
  /// rmax is at a Z-angle above kAngTol, so at most one robot of onCi
  /// holds a (possibly negative) zero. The same holds for
  /// cleanExteriorMove's greatest Z-angle.
  Action pullOntoCircle(std::size_t mover, std::size_t ci, Run onCi,
                        int tag) const {
    if (a_.self() != mover) return Action::stay(tag);
    if (sharesCircle(mover)) return stepOutward(mover, circleRadii_[ci], tag);
    double aMin = kTwoPi;
    for (std::size_t r : onCi) aMin = std::min(aMin, zAngle(r));
    const double myAng = zAngle(mover);
    if (myAng < aMin - kAngTol || onCi.empty()) {
      return Action{radialPath(Vec2{}, p_[mover], circleRadii_[ci]), tag};
    }
    // Slide (indirect orientation) below the minimum occupied angle —
    // except rmax, which anchors angle 0 and always moves radially. The
    // landing angle is salted (see positionSalt).
    if (mover == *rmax_) {
      return Action{radialPath(Vec2{}, p_[mover], circleRadii_[ci]), tag};
    }
    const double target = aMin * (0.35 + 0.3 * positionSalt(mover));
    return Action{bandArc(mover, target), tag};
  }

  /// Move `mover` along its circle toward Z-angle `target`, halving the
  /// distance to any blocking robot on the same circle, preserving C(P)
  /// when the circle is C1.
  Action moveOnCircleBlocked(std::size_t mover, std::size_t ci, double target,
                             int tag) const {
    if (a_.self() != mover) return Action::stay(tag);
    const double cur = zAngle(mover);
    if (std::fabs(cur - target) <= kAngTol) return Action::stay(tag);
    double goal = target;
    const double lo = std::min(cur, target), hi = std::max(cur, target);
    double blocker = kInf;
    for (std::size_t j = 0; j < p_.size(); ++j) {
      if (j == mover || !geom::distEq(radius(j), radius(mover))) continue;
      const double aj = zAngle(j);
      // Multiplicity extension (appendix C): a robot already sitting at the
      // mover's own destination does not block — robots sharing a
      // destination are allowed to merge there.
      if (a_.multiplicity() && std::fabs(aj - target) <= kAngTol) continue;
      // A robot strictly on the way blocks; so does a robot parked at (or
      // next to) the goal itself — under ASYNC staleness two movers can
      // transiently hold the same rank and target the same slot, and
      // without this guard they would merge by arriving from opposite
      // sides. Halving keeps them apart until a fresh view re-ranks them.
      const bool onTheWay = aj > lo + kAngTol && aj < hi - kAngTol;
      const bool atGoal = std::fabs(aj - target) <= 10.0 * kAngTol;
      if (onTheWay || atGoal) {
        if (std::fabs(aj - cur) < std::fabs(blocker - cur)) blocker = aj;
      }
    }
    if (blocker != kInf) goal = (cur + blocker) / 2.0;
    if (geom::distEq(circleRadii_[ci], 1.0)) goal = clampGapOnC1(mover, goal);
    if (std::fabs(goal - cur) <= kAngTol) return Action::stay(tag);
    return Action{bandArc(mover, goal), tag};
  }

  // ---------- phase 2: per-circle placement ----------

  /// One walk from the outside in over the P' robots' radius order. For
  /// circle ci, cleanExterior's robots strictly between C_{ci-1} and C_ci
  /// and the robots on C_ci are runs of byRadius, each bounded by a count
  /// of the entries under a threshold. Every threshold falls as ci grows
  /// (the radii descend and rounding is monotone), so each count only
  /// moves down: the walk reads each entry a bounded number of times. A
  /// robot within kTol of two circles is counted on both.
  std::optional<Action> circles() {
    const std::vector<std::size_t>& b = s_.byRadius;
    // Lowers `pos` to the number of entries for which `above` (true on a
    // suffix of byRadius) is false.
    auto lower = [&](std::size_t& pos, auto above) {
      while (pos > 0 && above(radius(b[pos - 1]))) --pos;
    };
    std::size_t belowHi = b.size(), atMostLo = b.size();
    std::size_t notAbove = b.size(), below = b.size();
    const std::size_t m = circleRadii_.size();
    for (std::size_t ci = 0; ci < m; ++ci) {
      const double r = circleRadii_[ci];
      const double lo = r + kTol;
      const double hi = ((ci == 0) ? kInf : circleRadii_[ci - 1]) - kTol;
      lower(belowHi, [&](double x) { return !(x < hi); });
      lower(atMostLo, [&](double x) { return x > lo; });
      lower(notAbove, [&](double x) { return aboveCircle(x, r); });
      lower(below, [&](double x) { return !belowCircle(x, r); });
      const Run onCi{b.data() + below, b.data() + notAbove};
      // cleanExterior(ci): no robots strictly between C_{ci-1} and C_ci,
      // scanned in index order.
      if (atMostLo < belowHi) {
        std::vector<std::size_t>& between = s_.between;
        between.assign(b.begin() + atMostLo, b.begin() + belowHi);
        std::sort(between.begin(), between.end());
        std::size_t mover = between.front();
        for (std::size_t i : between) {
          if (zOrderLess(i, mover)) mover = i;
        }
        return cleanExteriorMove(mover, ci, onCi);
      }
      const std::size_t mi = static_cast<std::size_t>(circleCounts_[ci]);
      if (onCi.size() < mi) {
        const std::size_t mover = greatestStrictlyInside(ci);
        if (mover == p_.size()) return std::optional<Action>(Action::stay(kDpfLocate));
        return std::optional<Action>(
            pullOntoCircle(mover, ci, onCi, kDpfLocate));
      }
      if (onCi.size() > mi) {
        return removeExcess(ci, zSorted(onCi), circleCounts_[ci]);
      }
    }
    return std::nullopt;  // every circle has exactly its count
  }

  std::optional<Action> cleanExteriorMove(std::size_t mover, std::size_t ci,
                                          Run onCi) {
    if (a_.self() != mover) return std::optional<Action>(Action::stay(kDpfClean));
    if (sharesCircle(mover)) {
      return std::optional<Action>(parkInward(mover, circleRadii_[ci], kDpfClean));
    }
    double aMax = 0.0;
    for (std::size_t r : onCi) aMax = std::max(aMax, zAngle(r));
    const bool last = (ci + 1 == circleRadii_.size());
    const double upper = last ? kTwoPi - thetaFPrime_ : kTwoPi - kAngTol * 10;
    const double myAng = zAngle(mover);
    if (myAng > aMax + kAngTol && myAng < upper) {
      return std::optional<Action>(
          Action{radialPath(Vec2{}, p_[mover], circleRadii_[ci]), kDpfClean});
    }
    // Salted landing angle in (aMax, upper); see positionSalt.
    const double target =
        aMax + (upper - aMax) * (0.35 + 0.3 * positionSalt(mover));
    return std::optional<Action>(Action{bandArc(mover, target), kDpfClean});
  }

  std::optional<Action> removeExcess(std::size_t ci,
                                     const std::vector<std::size_t>& onCi,
                                     int mi) {
    if (ci > 0) {
      const std::size_t mover = onCi.front();  // smallest on the circle
      if (a_.self() != mover) return std::optional<Action>(Action::stay(kDpfRemove));
      const double floor =
          (ci + 1 < circleRadii_.size()) ? circleRadii_[ci + 1] : 0.0;
      return std::optional<Action>(parkInward(mover, floor, kDpfRemove));
    }
    // ci == 0: the m1-gon dance (m1 >= 3 here; m1 == 2 is fixEnclosing's).
    const int b = static_cast<int>(onCi.size()) - mi;
    // Targets: the regular mi-gon symmetric about angle 0 with no vertex at
    // angle 0, plus b staging angles evenly inside (0, pi/mi).
    std::vector<double>& gon = s_.gon;
    gon.clear();
    for (int k = 0; k < mi; ++k) {
      gon.push_back(geom::norm2pi((2.0 * k + 1.0) * kPi / mi));
    }
    std::sort(gon.begin(), gon.end());
    // The mi greatest robots on C1 (largest angles) map to the gon slots.
    const std::size_t* greatest = onCi.data() + (onCi.size() - mi);
    bool gonFormed = true;
    for (int k = 0; k < mi; ++k) {
      if (std::fabs(zAngle(greatest[k]) - gon[k]) > kDoneTol) {
        gonFormed = false;
        break;
      }
    }
    if (gonFormed) {
      const std::size_t mover = onCi.front();
      if (a_.self() != mover) return std::optional<Action>(Action::stay(kDpfRemove));
      const double floor =
          (circleRadii_.size() > 1) ? circleRadii_[1] : 0.0;
      return std::optional<Action>(parkInward(mover, floor, kDpfRemove));
    }
    // Everyone on C1 moves toward its assigned slot.
    const auto it = std::find(onCi.begin(), onCi.end(), a_.self());
    if (it == onCi.end()) return std::optional<Action>(Action::stay(kDpfRemove));
    const std::size_t rank = it - onCi.begin();
    double target;
    if (static_cast<int>(rank) >= b) {
      target = gon[rank - b];
    } else {
      target = (kPi / mi) * static_cast<double>(rank + 1) /
               static_cast<double>(b + 1);
    }
    return std::optional<Action>(
        moveOnCircleBlocked(a_.self(), 0, target, kDpfRemove));
  }

  // ---------- phase 3: rotation to destinations ----------

  /// Rank-match robots and targets by angle on self's circle. circles()
  /// has found every circle holding exactly its count, which is its number
  /// of targets, so only self's own circle is read (the first that holds
  /// it, should it lie within kTol of two).
  Action rotate() {
    const std::size_t self = a_.self();
    for (std::size_t ci = 0; isPrime(self) && ci < circleRadii_.size(); ++ci) {
      if (!onCircle(self, ci)) continue;
      const auto& onCi = zSorted(circleRun(ci));
      const auto& tgt = targetsOnCircle(ci);
      if (onCi.size() != tgt.size()) return Action::stay(kDpfRotate);
      const std::size_t rank =
          std::find(onCi.begin(), onCi.end(), self) - onCi.begin();
      return moveOnCircleBlocked(self, ci, tgt[rank], kDpfRotate);
    }
    return Action::stay(kDpfRotate);
  }

  // ---------- data ----------

  Analysis& a_;
  const Configuration& p_;
  const config::PolarTable& polar_;
  std::size_t rs_;
  const PatternInfo& pat_;
  PlannerScratch& s_;
  bool valid_ = false;

  double fmaxRadius_;
  double thetaFPrime_;
  const std::vector<double>& circleRadii_;
  const std::vector<int>& circleCounts_;

  std::optional<std::size_t> rmax_;
  double zTheta0_ = 0.0;
  double zSign_ = 1.0;
};

}  // namespace

Action dpfCompute(Analysis& a) {
  const auto rs = a.selectedRobot();
  if (!rs) return Action::stay(kStay);
  thread_local PlannerScratch scratch;
  Planner planner(a, *rs, scratch);
  return planner.compute();
}

}  // namespace apf::core

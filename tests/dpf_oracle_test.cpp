/// Differential test of psi_DPF's Compute against test-only copies of the
/// slow kernels it replaces: the Planner that recomputed every radius and
/// Z-angle with hypot/atan2 and rebuilt a circle's robots on every query,
/// a terminal check and finalMove that always ran findSimilarity, the
/// O(n^2) selectedRobot and maxViewP's distance scans. Snapshots harvested
/// from live runs of the slow kernel (n = 16, 32, 64; random and two-k-gon
/// starts, plus crafted ones) in every psi_DPF sub-phase, the final move
/// and the terminal stay must get the same phase tag, the same random bits
/// and a bit-identical path from both.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "config/generator.h"
#include "config/similarity.h"
#include "core/analysis.h"
#include "core/form_pattern.h"
#include "core/moves.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "geom/angle.h"
#include "sim/engine.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::Vec2;

namespace oracle {

using geom::kPi;
using geom::kTwoPi;
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

/// The psi_DPF planner as it was: every radius and Z-angle recomputed on
/// each use, robotsOnCircle scanning and sorting on every call.
class SlowPlanner {
 public:
  SlowPlanner(Analysis& a, std::size_t rs)
      : a_(a), p_(a.P()), f_(a.F()), rs_(rs), pat_(a.patternInfo()) {
    if (!pat_.valid || p_.size() != f_.size()) return;
    fmaxRadius_ = pat_.fmaxRadius;
    thetaFPrime_ = pat_.thetaFPrime;
    targets_ = pat_.targets;
    circleRadii_ = pat_.circleRadii;
    circleCounts_ = pat_.circleCounts;
    valid_ = true;
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

  using Polar = PatternInfo::Polar;

  double radius(std::size_t i) const { return p_[i].norm(); }
  bool isPrime(std::size_t i) const { return i != rs_; }

  /// Z-system angle of a point (angle 0 on rmax's ray, orientation zSign_).
  double zAngle(Vec2 q) const {
    if (q.norm() <= kTol) return 0.0;
    double ang = geom::norm2pi(zSign_ * (q.arg() - zTheta0_));
    if (ang > kTwoPi - kAngTol) ang = 0.0;
    return ang;
  }

  /// Arc on the robot's own circle from its current Z-angle to Z-angle
  /// `target`, staying inside the (0, 2pi) band (never crossing rmax's ray).
  geom::Path bandArc(std::size_t i, double targetZ) const {
    const double cur = zAngle(p_[i]);
    const double sweepZ = targetZ - cur;  // not wrapped: stays in the band
    return arcBySweep(Vec2{}, p_[i], zSign_ * sweepZ);
  }

  // ---------- phase 1: global coordinate system ----------

  /// The unique rmax candidate satisfying (i), (ii), (iv); nullopt if none
  /// or not unique.
  std::optional<std::size_t> findRmax() const {
    const Vec2 rsPos = p_[rs_];
    if (rsPos.norm() <= kTol) return std::nullopt;  // rs at center
    const double rsArg = rsPos.arg();
    double minRad = kInf, minAng = kInf;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i)) continue;
      minRad = std::min(minRad, radius(i));
      minAng = std::min(minAng, geom::angDist(p_[i].arg(), rsArg));
    }
    std::vector<std::size_t> cands;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i)) continue;
      const double ang = geom::angDist(p_[i].arg(), rsArg);
      if (geom::distEq(radius(i), minRad) &&
          std::fabs(ang - minAng) <= kAngTol &&
          2.0 * ang < thetaFPrime_ - kAngTol) {
        cands.push_back(i);
      }
    }
    if (cands.size() != 1) return std::nullopt;
    return cands.front();
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
    if (rsPos.norm() > kTol) {
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
      const double g = geom::angDist(p_[i].arg(), p_[r0].arg());
      // Robots exactly on r0's ray (parked radially below it) do not
      // constrain the placement: they are at larger radii, so condition (i)
      // already rules them out as rmax candidates.
      if (g > kAngTol) minGap = std::min(minGap, g);
    }
    const double phi = 0.25 * std::min({thetaFPrime_, minGap, kPi});
    const double d = std::min(a_.lF(), minRad) / 2.0;
    const double ang = p_[r0].arg() - phi;
    return Action{linePath(rsPos, Vec2{std::cos(ang), std::sin(ang)} * d),
                  kDpfCoord};
  }

  /// True when the robots on C(P) other than `skip` still hold the circle:
  /// no angular gap among them exceeds pi.
  bool secSafeWithout(std::size_t skip) const {
    std::vector<double> angs;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (i == skip || radius(i) < 1.0 - 1e-7) continue;
      angs.push_back(geom::norm2pi(p_[i].arg()));
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
      ring.push_back({geom::norm2pi(p_[i].arg()), i});
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
    const double myAng = geom::norm2pi(p_[a_.self()].arg());
    const double rsRay = geom::norm2pi(p_[rs_].arg());
    const double rmaxRay = geom::norm2pi(p_[rmaxIdx].arg());
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
    zTheta0_ = p_[*rmax_].arg();
    const double rel = geom::norm2pi(p_[rs_].arg() - zTheta0_);
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
  }

  // ---------- null-angle pre-phase ----------

  std::optional<Action> nullAngle() {
    std::vector<std::size_t> null;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == *rmax_) continue;
      if (zAngle(p_[i]) <= kAngTol) null.push_back(i);
    }
    if (null.empty()) return std::nullopt;
    double minPos = kPi;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (!isPrime(i) || i == *rmax_) continue;
      const double zi = zAngle(p_[i]);
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

  std::vector<std::size_t> robotsOnCircle(std::size_t ci) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (isPrime(i) && onCircle(i, ci)) out.push_back(i);
    }
    // Sorted by Z-angle ascending; index tiebreak keeps merged robots
    // (identical positions under multiplicity) deterministically ordered —
    // they are interchangeable, so any consistent order is sound.
    std::sort(out.begin(), out.end(), [&](std::size_t x, std::size_t y) {
      const double ax = zAngle(p_[x]), ay = zAngle(p_[y]);
      if (std::fabs(ax - ay) > kAngTol) return ax < ay;
      return x < y;
    });
    return out;
  }

  std::vector<double> targetsOnCircle(std::size_t ci) const {
    std::vector<double> out;
    for (const auto& t : targets_) {
      if (geom::distEq(t.radius, circleRadii_[ci])) out.push_back(t.angle);
    }
    std::sort(out.begin(), out.end());
    return out;
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
    std::vector<double> angs;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (i != mover && geom::distEq(radius(i), 1.0)) {
        angs.push_back(zAngle(p_[i]));
      }
    }
    if (angs.size() < 2) return zAngle(p_[mover]);  // cannot move at all
    const double cur = zAngle(p_[mover]);
    // Binary search along [cur, targetZ] for the farthest safe position.
    auto safe = [&](double candidate) {
      std::vector<double> all = angs;
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
    const auto tgt = targetsOnCircle(0);  // two diametral angles, sorted
    const auto onC1 = robotsOnCircle(0);
    // Condition: exactly two robots, at the two targets (kDoneTol: looser
    // than the movers' stopping threshold, see hysteresis note above).
    if (onC1.size() == 2 &&
        std::fabs(zAngle(p_[onC1[0]]) - tgt[0]) <= kDoneTol &&
        std::fabs(zAngle(p_[onC1[1]]) - tgt[1]) <= kDoneTol) {
      return std::nullopt;
    }
    if (onC1.size() == 2) {
      // Pull a third robot (the greatest interior one) out to C1 so the two
      // can maneuver without breaking C(P).
      const std::size_t mover = greatestStrictlyInside(0);
      if (mover == p_.size()) return std::nullopt;  // nobody to pull
      return std::optional<Action>(pullOntoCircle(mover, 0, kDpfFixCircle));
    }
    // >= 3 robots on C1: greatest -> larger target, smallest -> smaller
    // target, middles evenly between; once the two ends are placed, excess
    // robots (second smallest first) leave inward.
    const std::size_t rBig = onC1.back();
    const std::size_t rSmall = onC1.front();
    const bool endsPlaced =
        std::fabs(zAngle(p_[rBig]) - tgt[1]) <= kDoneTol &&
        std::fabs(zAngle(p_[rSmall]) - tgt[0]) <= kDoneTol;
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
        std::sin(zAngle(p_[i]) * 127.1 + radius(i) * 311.7) * 43758.5453;
    return x - std::floor(x);
  }

  bool zOrderLess(std::size_t x, std::size_t y) const {
    const double ax = zAngle(p_[x]), ay = zAngle(p_[y]);
    if (std::fabs(ax - ay) > kAngTol) return ax < ay;
    return radius(x) < radius(y);
  }

  /// locateEnoughRobots-style move of `mover` onto circle ci: step off a
  /// shared circle, slide below the circle's occupied angles, then move
  /// radially outward.
  Action pullOntoCircle(std::size_t mover, std::size_t ci, int tag) const {
    if (a_.self() != mover) return Action::stay(tag);
    if (sharesCircle(mover)) return stepOutward(mover, circleRadii_[ci], tag);
    const auto onCi = robotsOnCircle(ci);
    double aMin = kTwoPi;
    for (std::size_t r : onCi) aMin = std::min(aMin, zAngle(p_[r]));
    const double myAng = zAngle(p_[mover]);
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
    const double cur = zAngle(p_[mover]);
    if (std::fabs(cur - target) <= kAngTol) return Action::stay(tag);
    double goal = target;
    const double lo = std::min(cur, target), hi = std::max(cur, target);
    double blocker = kInf;
    for (std::size_t j = 0; j < p_.size(); ++j) {
      if (j == mover || !geom::distEq(radius(j), radius(mover))) continue;
      const double aj = zAngle(p_[j]);
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

  std::optional<Action> circles() {
    const std::size_t m = circleRadii_.size();
    for (std::size_t ci = 0; ci < m; ++ci) {
      // cleanExterior(ci): no robots strictly between C_{ci-1} and C_ci.
      std::vector<std::size_t> between;
      for (std::size_t i = 0; i < p_.size(); ++i) {
        if (!isPrime(i)) continue;
        const double ri = radius(i);
        const double upperR = (ci == 0) ? kInf : circleRadii_[ci - 1];
        if (ri > circleRadii_[ci] + kTol && ri < upperR - kTol) {
          between.push_back(i);
        }
      }
      if (!between.empty()) {
        std::size_t mover = between.front();
        for (std::size_t i : between) {
          if (zOrderLess(i, mover)) mover = i;
        }
        return cleanExteriorMove(mover, ci);
      }
      const auto onCi = robotsOnCircle(ci);
      const int mi = circleCounts_[ci];
      if (static_cast<int>(onCi.size()) < mi) {
        const std::size_t mover = greatestStrictlyInside(ci);
        if (mover == p_.size()) return std::optional<Action>(Action::stay(kDpfLocate));
        return std::optional<Action>(pullOntoCircle(mover, ci, kDpfLocate));
      }
      if (static_cast<int>(onCi.size()) > mi) {
        return removeExcess(ci, onCi, mi);
      }
    }
    return std::nullopt;  // every circle has exactly its count
  }

  std::optional<Action> cleanExteriorMove(std::size_t mover, std::size_t ci) {
    if (a_.self() != mover) return std::optional<Action>(Action::stay(kDpfClean));
    if (sharesCircle(mover)) {
      return std::optional<Action>(parkInward(mover, circleRadii_[ci], kDpfClean));
    }
    const auto onCi = robotsOnCircle(ci);
    double aMax = 0.0;
    for (std::size_t r : onCi) aMax = std::max(aMax, zAngle(p_[r]));
    const bool last = (ci + 1 == circleRadii_.size());
    const double upper = last ? kTwoPi - thetaFPrime_ : kTwoPi - kAngTol * 10;
    const double myAng = zAngle(p_[mover]);
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
    std::vector<double> gon;
    for (int k = 0; k < mi; ++k) {
      gon.push_back(geom::norm2pi((2.0 * k + 1.0) * kPi / mi));
    }
    std::sort(gon.begin(), gon.end());
    // The mi greatest robots on C1 (largest angles) map to the gon slots.
    std::vector<std::size_t> greatest(onCi.end() - mi, onCi.end());
    bool gonFormed = true;
    for (int k = 0; k < mi; ++k) {
      if (std::fabs(zAngle(p_[greatest[k]]) - gon[k]) > kDoneTol) {
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

  Action rotate() {
    // Per circle, rank-match robots and targets by angle.
    for (std::size_t ci = 0; ci < circleRadii_.size(); ++ci) {
      const auto onCi = robotsOnCircle(ci);
      const auto tgt = targetsOnCircle(ci);
      if (onCi.size() != tgt.size()) return Action::stay(kDpfRotate);
      const auto it = std::find(onCi.begin(), onCi.end(), a_.self());
      if (it == onCi.end()) continue;
      const std::size_t rank = it - onCi.begin();
      return moveOnCircleBlocked(a_.self(), ci, tgt[rank], kDpfRotate);
    }
    return Action::stay(kDpfRotate);
  }

  // ---------- data ----------

  Analysis& a_;
  const Configuration& p_;
  const Configuration& f_;
  std::size_t rs_;
  const PatternInfo& pat_;
  bool valid_ = false;

  double fmaxRadius_ = 0.0;
  double thetaFPrime_ = kPi;
  std::vector<Polar> targets_;
  std::vector<double> circleRadii_;
  std::vector<int> circleCounts_;

  std::optional<std::size_t> rmax_;
  double zTheta0_ = 0.0;
  double zSign_ = 1.0;
};

std::optional<std::size_t> selectedRobot(Analysis& a) {
  std::optional<std::size_t> selected;
  const Configuration& p = a.P();
  const Vec2 c{};
  const double bound = a.lF() / 2.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double ri = geom::dist(p[i], c);
    if (ri >= bound - 1e-12) continue;
    bool alone = true;
    for (std::size_t j = 0; j < p.size() && alone; ++j) {
      if (j == i) continue;
      if (geom::dist(p[j], c) < 2.0 * ri - 1e-12) alone = false;
    }
    if (alone) {
      selected = i;
      break;
    }
  }
  return selected;
}

Vec2 centerP(Analysis& a) {
  if (selectedRobot(a)) return Vec2{};
  if (a.shiftedSet()) return a.shiftedSet()->grid.center;
  if (a.regularSet() && a.regularSet()->wholeConfig) {
    return a.regularSet()->grid.center;
  }
  return a.P().sec().center;
}

std::vector<std::size_t> maxViewP(Analysis& a) {
  const Configuration& p = a.P();
  const Vec2 c = centerP(a);
  double minR = std::numeric_limits<double>::infinity();
  for (const Vec2& q : p.points()) minR = std::min(minR, geom::dist(q, c));
  std::vector<std::size_t> ring;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (geom::dist(p[i], c) <= minR + 1e-9) ring.push_back(i);
  }
  if (ring.size() == 1) return ring;
  std::vector<config::View> views;
  for (std::size_t i : ring) {
    views.push_back(config::localView(p, i, c, a.multiplicity()));
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

constexpr geom::Tol kMatchTol{1e-6, 1e-6};

std::optional<Action> finalMove(Analysis& a) {
  const auto maxP = maxViewP(a);
  if (maxP.size() != 1) return std::nullopt;
  const std::size_t r = maxP.front();
  const Configuration pWithout = a.P().without(r);
  const auto& fs = a.maxViewNonHoldersF();
  for (std::size_t k = 0; k < fs.size(); ++k) {
    const auto t =
        config::findSimilarity(a.fWithout(k), pWithout, true, kMatchTol);
    if (!t) continue;
    if (a.self() != r) return Action::stay(kFinalMove);
    const Vec2 dest = t->apply(a.F()[fs[k]]);
    if (geom::dist(dest, a.P()[r]) <= 1e-8) return Action::stay(kFinalMove);
    return Action{linePath(a.P()[r], dest), kFinalMove};
  }
  return std::nullopt;
}

/// FormPatternAlgorithm::compute as it was, without multiplicity
/// detection.
Action compute(const sim::Snapshot& snap, sched::RandomSource& rng) {
  Analysis a(snap);
  if (!a.ok()) return Action::stay(kStay);
  if (config::similar(a.P(), a.F(), kMatchTol)) return Action::stay(kTerminal);
  Action act = Action::stay(kStay);
  if (auto fin = finalMove(a)) {
    act = *fin;
  } else if (const auto rs = selectedRobot(a)) {
    act = SlowPlanner(a, *rs).compute();
  } else {
    act = rsbCompute(a, rng);
  }
  if (act.isMove()) act.path = act.path.transformed(a.denormalize());
  return act;
}

}  // namespace oracle

/// Runs the slow kernel and keeps the snapshots of the first 16 calls
/// answered with each tag, then of every power-of-two-th call. The runs,
/// and so the snapshots, do not depend on the kernel under test.
class Tap final : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    sim::Action act = oracle::compute(snap, rng);
    const std::uint64_t k = seen_[act.phaseTag]++;
    if (k < 16 || (k & (k - 1)) == 0) harvest.push_back(snap);
    return act;
  }
  std::string name() const override { return "tap(slow form)"; }

  mutable std::vector<sim::Snapshot> harvest;

 private:
  mutable std::map<int, std::uint64_t> seen_;
};

std::vector<sim::Snapshot> harvest(const Configuration& start,
                                   const Configuration& pattern,
                                   std::uint64_t seed,
                                   std::uint64_t maxEvents) {
  Tap tap;
  sim::EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.seed = seed;
  opts.maxEvents = maxEvents;
  sim::Engine eng(start, pattern, tap, opts);
  (void)eng.run();
  return std::move(tap.harvest);
}

Configuration twoConcentric(std::size_t k) {
  Configuration p = config::regularPolygon(k, 1.0, {}, 0.0);
  const Configuration inner =
      config::regularPolygon(k, 0.6, {}, geom::kPi / static_cast<double>(k));
  for (const Vec2& q : inner.points()) p.push_back(q);
  return p;
}

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

bool sameBits(Vec2 a, Vec2 b) {
  return bitsOf(a.x) == bitsOf(b.x) && bitsOf(a.y) == bitsOf(b.y);
}

bool samePath(const geom::Path& a, const geom::Path& b) {
  const auto sa = a.segments();
  const auto sb = b.segments();
  if (a.empty() != b.empty() || sa.size() != sb.size()) return false;
  if (!sameBits(a.start(), b.start())) return false;
  for (std::size_t k = 0; k < sa.size(); ++k) {
    if (sa[k].index() != sb[k].index()) return false;
    if (const auto* la = std::get_if<geom::LineSeg>(&sa[k])) {
      const auto& lb = std::get<geom::LineSeg>(sb[k]);
      if (!sameBits(la->a, lb.a) || !sameBits(la->b, lb.b)) return false;
    } else {
      const auto& aa = std::get<geom::ArcSeg>(sa[k]);
      const auto& ab = std::get<geom::ArcSeg>(sb[k]);
      if (!sameBits(aa.center, ab.center) ||
          bitsOf(aa.radius) != bitsOf(ab.radius) ||
          bitsOf(aa.startAngle) != bitsOf(ab.startAngle) ||
          bitsOf(aa.sweep) != bitsOf(ab.sweep)) {
        return false;
      }
    }
  }
  return true;
}

/// Checks the snapshots against the oracle; returns the tags covered.
std::set<int> expectSameAsOracle(const std::vector<sim::Snapshot>& snaps,
                                 const std::string& label) {
  const FormPatternAlgorithm form;
  std::set<int> tags;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    const sim::Snapshot& snap = snaps[k];
    sched::RandomSource fastRng(99), slowRng(99);
    const sim::Action got = form.compute(snap, fastRng);
    const sim::Action want = oracle::compute(snap, slowRng);
    const std::string what = label + " snapshot " + std::to_string(k) +
                             " (phase " + phaseName(want.phaseTag) + ")";
    EXPECT_EQ(got.phaseTag, want.phaseTag) << what;
    EXPECT_TRUE(samePath(got.path, want.path)) << what;
    EXPECT_EQ(fastRng.bitsConsumed(), slowRng.bitsConsumed()) << what;
    Analysis fast(snap);
    Analysis slow(snap);
    if (fast.ok() && oracle::selectedRobot(slow)) {
      // The psi_DPF regime (in the election the center search dominates).
      EXPECT_EQ(fast.selectedRobot(), oracle::selectedRobot(slow)) << what;
      EXPECT_EQ(fast.maxViewP(), oracle::maxViewP(slow)) << what;
    }
    tags.insert(want.phaseTag);
  }
  return tags;
}

void expectCovered(const std::set<int>& tags, std::initializer_list<int> want) {
  for (int tag : want) EXPECT_TRUE(tags.count(tag) != 0) << phaseName(tag);
}

/// The pattern and random start of size n the live tests share.
std::pair<Configuration, Configuration> patternAndStart(std::size_t n) {
  config::Rng rng(5 + n);
  Configuration pattern = config::randomPattern(n, rng);
  return {pattern, config::randomConfiguration(n, rng, 3.0, 0.1)};
}

TEST(DpfOracleTest, RandomStarts) {
  std::set<int> tags;
  for (std::size_t n : {16u, 32u, 64u}) {
    const auto [pattern, start] = patternAndStart(n);
    tags.merge(expectSameAsOracle(harvest(start, pattern, 2, 200000),
                                  "random n=" + std::to_string(n)));
  }
  expectCovered(tags, {kTerminal, kFinalMove, kDpfCoord, kDpfClean,
                       kDpfLocate, kDpfRemove, kDpfRotate});
}

TEST(DpfOracleTest, TwoGonStarts) {
  std::set<int> tags;
  for (std::size_t n : {16u, 32u}) {
    const auto [pattern, start] = patternAndStart(n);
    tags.merge(expectSameAsOracle(
        harvest(twoConcentric(n / 2), pattern, 3, 40000),
        "two-gon n=" + std::to_string(n)));
  }
  expectCovered(tags, {kDpfCoord, kDpfRemove});
}

/// Past the election (most of this test's time) the robots dance on C_1
/// with 32 of them in its bucket.
TEST(DpfOracleTest, TwoGonStartN64) {
  const auto [pattern, start] = patternAndStart(64);
  expectCovered(expectSameAsOracle(harvest(twoConcentric(32), pattern, 3, 4000),
                                   "two-gon n=64"),
                {kDpfCoord, kDpfRemove});
}

/// Two crafted runs for the rarer sub-phases. Robots in pairs on eight
/// rays occupy rmax's ray, so the null-angle pre-phase runs; a pattern
/// whose circle is held by one diametral pair runs fixEnclosingCircle.
TEST(DpfOracleTest, CraftedStarts) {
  Configuration rays;
  for (int k = 0; k < 8; ++k) {
    const double a = 0.3 + k * geom::kTwoPi / 8.4;
    rays.push_back(Vec2{std::cos(a), std::sin(a)} * 3.0);
    rays.push_back(Vec2{std::cos(a), std::sin(a)} * 1.7);
  }
  std::set<int> tags = expectSameAsOracle(
      harvest(rays, patternAndStart(16).first, 1, 200000), "rays n=16");
  config::Rng rng(77);
  Configuration twoOnSec({{1.0, 0.0}, {-1.0, 0.0}});
  const Configuration inner = config::randomConfiguration(14, rng, 0.55, 0.05);
  for (const Vec2& q : inner.points()) twoOnSec.push_back(q);
  const Configuration start2 = config::randomConfiguration(16, rng, 3.0, 0.1);
  tags.merge(expectSameAsOracle(harvest(start2, twoOnSec, 1, 200000),
                                "two-on-sec n=16"));
  expectCovered(tags, {kDpfNullAngle, kDpfFixCircle});
}

/// Snapshots of a crowded enclosing circle with two of its robots closer
/// than kAngTol: robotsOnCircle orders such a pair by index, and with more
/// than 16 robots in the bucket std::sort partitions, so only the index
/// tie-break keeps the order of the slow kernel. Twenty robots start on
/// one circle; the C_1 dance then runs with all of them in its bucket, and
/// each harvested snapshot whose robot is on C(P) gets a neighbour moved
/// to within 3e-8 rad of it, on either side.
TEST(DpfOracleTest, NearTiesOnCrowdedCircle) {
  config::Rng rng(21);
  std::uniform_real_distribution<double> jitter(-0.08, 0.08);
  Configuration start;
  for (int k = 0; k < 20; ++k) {
    const double a = geom::kTwoPi * (k + 0.5 + jitter(rng)) / 20.0;
    start.push_back(Vec2{std::cos(a), std::sin(a)} * 3.0);
  }
  const Configuration inner = config::randomConfiguration(4, rng, 1.5, 0.1);
  for (const Vec2& q : inner.points()) start.push_back(q);
  const auto snaps = harvest(start, patternAndStart(24).first, 4, 60000);
  std::vector<sim::Snapshot> variants;
  for (const sim::Snapshot& snap : snaps) {
    const Configuration& p = snap.robots;
    const geom::Circle sec = p.sec();
    const geom::Tol onSec{1e-9 * sec.radius, 0.0};
    const Vec2 self = p[snap.selfIndex] - sec.center;
    if (!geom::distEq(self.norm(), sec.radius, onSec)) continue;
    std::size_t near = p.size();
    double best = geom::kPi;
    for (std::size_t j = 0; j < p.size(); ++j) {
      const Vec2 q = p[j] - sec.center;
      if (j == snap.selfIndex || !geom::distEq(q.norm(), sec.radius, onSec)) {
        continue;
      }
      const double d = geom::angDist(q.arg(), self.arg());
      if (d < best) {
        best = d;
        near = j;
      }
    }
    if (near == p.size()) continue;
    for (double delta : {3e-8, -3e-8}) {
      sim::Snapshot v = snap;
      std::vector<Vec2> pts = p.points();
      pts[near] = sec.center + self.rotated(delta);
      v.robots = Configuration(std::move(pts));
      variants.push_back(std::move(v));
    }
  }
  const std::set<int> tags = expectSameAsOracle(variants, "near tie");
  expectCovered(tags, {kDpfRemove});
}

}  // namespace
}  // namespace apf::core

#include "core/rsb.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "config/rays.h"
#include "config/similarity.h"
#include "core/moves.h"
#include "core/phases.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::kTwoPi;
using geom::Vec2;
using sim::Action;

constexpr double kTol = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Target point for the final descent to selected-ness: the robot moves
/// along its ray from the set center `c` (preserving the shifted/asymmetric
/// structure) to a point whose SEC-centered radius satisfies the selected
/// predicate — strictly inside D(l_F / 2) and no other robot strictly
/// inside twice its radius (the predicate is evaluated around the SEC
/// center, the origin of the normalized frame).
std::optional<Vec2> selectedDescendTarget(Analysis& a, Vec2 c,
                                          std::size_t self) {
  const Vec2 pos = a.P()[self];
  const Vec2 d = pos - c;
  const double t0 = d.norm();
  if (t0 <= kTol) return std::nullopt;
  const Vec2 u = d / t0;

  const std::vector<double>& radii = a.radii();  // SEC-centered
  double minOther = kInf;
  for (std::size_t j = 0; j < radii.size(); ++j) {
    if (j != self) minOther = std::min(minOther, radii[j]);
  }
  const double bound = 0.45 * std::min(a.lF(), minOther);

  // Solve |c + t u| = bound for the largest t in (0, t0).
  const double cu = c.dot(u);
  const double disc = cu * cu - (c.norm2() - bound * bound);
  double t;
  if (disc >= 0.0) {
    t = -cu + std::sqrt(disc);
    if (t <= kTol || t >= t0 - kTol) {
      // Already inside the band or no forward intersection: step to the
      // closest approach of the ray to the origin instead.
      t = std::clamp(-cu, t0 * 0.05, t0 * (1.0 - 1e-6));
    }
  } else {
    // The ray never reaches the selected band (possible only when the set
    // center is far from the SEC center); best effort: closest approach.
    t = std::clamp(-cu, t0 * 0.05, t0 * (1.0 - 1e-6));
  }
  const Vec2 target = c + u * t;
  if (geom::normLeq(target - pos, kTol)) return std::nullopt;
  return target;
}

/// Handling of a shifted regular set (selectARobot, first branch).
Action shiftedCase(Analysis& a, const config::ShiftedSetInfo& sh) {
  const Configuration& p = a.P();
  const std::size_t self = a.self();
  const Vec2 c = sh.grid.center;
  const std::size_t re = sh.shiftedRobot;
  const config::PolarTable& t = p.polar(c);
  const double rRe = t.radius[re];

  // Phase structure (paper §3.1, with the pseudo-code's S-test
  // disambiguated): shift 1/4 is the final-descent marker — once the shift
  // reaches it, the shifted robot descends radially toward the selected
  // band no matter where the others are (the naive S = {|r| > |re|} test
  // would misfire mid-descent, when everyone is above re again, and order
  // the shift back to 1/8). Below 1/4, the state is read off the radii:
  // others gathered on re's circle -> widen to 1/4; others elsewhere ->
  // pin the shift at 1/8 and descend the stragglers.
  bool othersOnReCircle = true;
  for (std::size_t q : sh.indices) {
    if (q != re && !geom::distEq(t.radius[q], rRe)) {
      othersOnReCircle = false;
      break;
    }
  }

  const double thetaV = (sh.associatedPos - c).arg();
  const double thetaRe = t.arg[re];
  const double side = (geom::normPi(thetaRe - thetaV) >= 0.0) ? 1.0 : -1.0;

  if (sh.epsilon >= 0.25 - 1e-7) {
    // Final descent: the shifted robot walks its ray to the selected band.
    if (self == re) {
      if (const auto target = selectedDescendTarget(a, c, self)) {
        return Action{linePath(p[self], *target), kRsbShifted};
      }
    }
    return Action::stay(kRsbShifted);
  }
  if (othersOnReCircle) {
    // Everyone gathered on re's circle: widen the shift to 1/4.
    if (self == re) {
      const double target = thetaV + side * sh.alphaMinPPrime / 4.0;
      return Action{arcToAngle(c, p[self], target), kRsbShifted};
    }
    return Action::stay(kRsbShifted);
  }
  if (std::fabs(sh.epsilon - 0.125) > 1e-7) {
    // Drive the shift to exactly 1/8 first.
    if (self == re) {
      const double target = thetaV + side * sh.alphaMinPPrime / 8.0;
      return Action{arcToAngle(c, p[self], target), kRsbShifted};
    }
    return Action::stay(kRsbShifted);
  }
  // Shift pinned at 1/8: set members above re's circle descend onto it.
  if (self != re && t.radius[self] > rRe + kTol &&
      std::find(sh.indices.begin(), sh.indices.end(), self) !=
          sh.indices.end()) {
    return Action{radialPath(c, p[self], rRe), kRsbShifted};
  }
  return Action::stay(kRsbShifted);
}

/// Result of the handlePartiallyFormedPattern pre-check (appendix A).
struct PartialCheck {
  bool applies = false;      ///< the partially-formed-pattern condition holds
  bool ordersMoves = false;  ///< cases 1-2: some robots must descend first
  std::optional<geom::Path> selfMove;
  double cap = kInf;  ///< case 3: election destinations must stay < cap
};

PartialCheck partialPatternCheck(Analysis& a,
                                 const config::RegularSetInfo& reg) {
  PartialCheck out;
  const Configuration& p = a.P();
  const Vec2 c = reg.grid.center;
  const config::PolarTable& t = p.polar(c);
  std::vector<std::size_t> comp;  // P \ Q
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (std::find(reg.indices.begin(), reg.indices.end(), i) ==
        reg.indices.end()) {
      comp.push_back(i);
    }
  }
  if (comp.empty() || comp.size() >= a.F().size()) return out;

  // Find a placement of F (rotation/reflection about the shared center,
  // same scale: both are SEC-normalized) under which every complement robot
  // sits on a pattern point.
  const Configuration& f = a.F();
  std::vector<Vec2> frPoints;
  bool placed = false;
  for (std::size_t fi = 0; fi < f.size() && !placed; ++fi) {
    const Vec2 fp = f[fi] - a.centerF();
    if (!geom::distEq(fp.norm(), t.radius[comp[0]], geom::Tol{1e-7, 1e-7})) {
      continue;
    }
    if (fp.norm() < kTol) continue;
    for (int refl = 0; refl < 2 && !placed; ++refl) {
      // Transform: center F on c, optionally reflect, rotate f[fi] onto the
      // first complement robot.
      std::vector<Vec2> mapped;
      mapped.reserve(f.size());
      const double fArg = refl ? -fp.arg() : fp.arg();
      const double rot = t.arg[comp[0]] - fArg;
      for (const Vec2& g : f.points()) {
        Vec2 v = g - a.centerF();
        if (refl) v.y = -v.y;
        mapped.push_back(c + v.rotated(rot));
      }
      // Greedy match complement robots to mapped pattern points.
      std::vector<bool> used(mapped.size(), false);
      bool all = true;
      for (std::size_t ci : comp) {
        bool found = false;
        for (std::size_t k = 0; k < mapped.size(); ++k) {
          if (!used[k] && geom::nearlyEqual(p[ci], mapped[k],
                                            geom::Tol{1e-6, 1e-6})) {
            used[k] = true;
            found = true;
            break;
          }
        }
        if (!found) {
          all = false;
          break;
        }
      }
      if (!all) continue;
      frPoints.clear();
      for (std::size_t k = 0; k < mapped.size(); ++k) {
        if (!used[k]) frPoints.push_back(mapped[k]);
      }
      placed = true;
    }
  }
  if (!placed) return out;

  // Condition ii: at least |Q| - 1 robots of Q sit on half-lines through
  // remaining pattern points.
  std::size_t onRays = 0;
  for (std::size_t qi : reg.indices) {
    const double aq = t.arg[qi];
    for (const Vec2& fr : frPoints) {
      if ((fr - c).norm() > kTol &&
          geom::angDist(aq, (fr - c).arg()) <= 1e-7) {
        ++onRays;
        break;
      }
    }
  }
  if (onRays + 1 < reg.indices.size()) return out;

  out.applies = true;
  double d1 = 0.0;
  for (const Vec2& fr : frPoints) d1 = std::max(d1, (fr - c).norm());
  double d2 = 0.0;
  for (const Vec2& fr : frPoints) {
    const double rr = (fr - c).norm();
    if (rr < d1 - kTol) d2 = std::max(d2, rr);
  }
  if (d2 == 0.0) d2 = d1;
  const double dMid = (d1 + d2) / 2.0;

  bool anyAboveD1 = false, anyAboveMid = false;
  for (std::size_t qi : reg.indices) {
    const double rq = t.radius[qi];
    anyAboveD1 |= rq > d1 + kTol;
    anyAboveMid |= rq > dMid + kTol;
  }
  if (anyAboveD1 || anyAboveMid) {
    // Set members above the level descend to it: d1 first, then dMid.
    const double level = anyAboveD1 ? d1 : dMid;
    out.ordersMoves = true;
    if (std::find(reg.indices.begin(), reg.indices.end(), a.self()) !=
            reg.indices.end() &&
        t.radius[a.self()] > level + kTol) {
      out.selfMove = radialPath(c, p[a.self()], level);
    }
    return out;
  }
  out.cap = dMid;
  return out;
}

/// Randomized election inside a configuration with a regular set
/// (selectARobot, second branch).
Action regularCase(Analysis& a, const config::RegularSetInfo& reg,
                   sched::RandomSource& rng) {
  const Configuration& p = a.P();
  const std::size_t self = a.self();
  const Vec2 c = reg.grid.center;

  const PartialCheck partial = partialPatternCheck(a, reg);
  if (partial.ordersMoves) {
    if (partial.selfMove) return Action{*partial.selfMove, kRsbPartial};
    return Action::stay(kRsbPartial);
  }

  const bool inQ = std::find(reg.indices.begin(), reg.indices.end(), self) !=
                   reg.indices.end();
  const config::PolarTable& t = p.polar(c);
  const double rSelf = t.radius[self];

  double minOtherQ = kInf, minAll = kInf, dOut = kInf;
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (j == self) continue;
    minAll = std::min(minAll, t.radius[j]);
  }
  for (std::size_t q : reg.indices) {
    if (q != self) minOtherQ = std::min(minOtherQ, t.radius[q]);
  }
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (std::find(reg.indices.begin(), reg.indices.end(), j) ==
        reg.indices.end()) {
      dOut = std::min(dOut, t.radius[j]);
    }
  }

  if (inQ && rSelf < (7.0 / 8.0) * minOtherQ - kTol) {
    // Aware of being elected: start the shift on the own circle toward the
    // angularly nearest other occupied ray, by 1/8 of alphamin.
    const double amin = config::alphaMin(p, c);
    double best = kInf, side = 1.0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (j == self || t.radius[j] <= kTol) continue;
      const double delta = geom::normPi(t.arg[j] - t.arg[self]);
      if (std::fabs(delta) > 1e-9 && std::fabs(delta) < best) {
        best = std::fabs(delta);
        side = (delta >= 0.0) ? 1.0 : -1.0;
      }
    }
    if (best == kInf) return Action::stay(kRsbElection);
    return Action{arcBySweep(c, p[self], side * amin / 8.0), kRsbElection};
  }

  if (inQ && rSelf <= minAll + kTol) {
    // Among the closest robots: flip the single random bit of this cycle.
    // Every exit below participated in an election round (the bit is
    // consumed even when geometry forces a stay), so each is flagged for
    // the telemetry layer.
    auto elected = [](Action a) {
      a.electionRound = true;
      return a;
    };
    const bool toward = rng.bit();
    if (toward) {
      const double target = rSelf * 7.0 / 8.0;
      if (target >= partial.cap) return elected(Action::stay(kRsbElection));
      return elected(Action{radialPath(c, p[self], target), kRsbElection});
    }
    const double step = std::min(0.5 * (dOut - rSelf), rSelf / 7.0);
    if (step <= kTol) return elected(Action::stay(kRsbElection));
    const double target = rSelf + step;
    if (target >= partial.cap) return elected(Action::stay(kRsbElection));
    return elected(Action{radialPath(c, p[self], target), kRsbElection});
  }
  return Action::stay(kRsbElection);
}

/// No regular set (psi_RSB restricted to Q^c): the unique max-view robot
/// descends radially.
Action asymmetricCase(Analysis& a) {
  const Configuration& p = a.P();
  const std::size_t self = a.self();
  const Vec2 c = a.centerP();

  // rmax: the UNIQUE maximal view among robots that do not hold C(P).
  // Ties would mean symmetric twins — by Property 1 such configurations
  // have a regular set and are handled by the Q branch; acting on a tie
  // here would require breaking it by robot identity, which anonymous
  // robots do not have.
  const auto& views = a.viewsP();
  const geom::Circle sec = p.sec();
  std::size_t rmax = p.size();
  bool tie = false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (geom::holdsSec(p.span(), i, sec)) continue;
    if (rmax == p.size()) {
      rmax = i;
      continue;
    }
    const int cmp = config::compareViews(views[i], views[rmax]);
    if (cmp > 0) {
      rmax = i;
      tie = false;
    } else if (cmp == 0) {
      tie = true;
    }
  }
  if (rmax == p.size() || tie || self != rmax) {
    return Action::stay(kRsbAsymmetric);
  }

  const config::PolarTable& t = p.polar(c);
  const double rSelf = t.radius[self];
  double minOther = kInf;
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (j != self) minOther = std::min(minOther, t.radius[j]);
  }

  // Probe: would stopping at 0.8 * minOther create a regular set? (The
  // paper's "exists a point on [rmax, c(P)) making the configuration
  // regular" — re-evaluated at each activation since robots are oblivious.)
  const double probeRadius = std::min(rSelf, 0.8 * minOther);
  if (probeRadius < rSelf - kTol) {
    std::vector<Vec2> test = p.points();
    test[self] = c + (p[self] - c) * (probeRadius / rSelf);
    if (config::regularSetOf(Configuration(std::move(test))).has_value()) {
      return Action{radialPath(c, p[self], probeRadius), kRsbAsymmetric};
    }
  }

  if (const auto target = selectedDescendTarget(a, c, self)) {
    return Action{linePath(p[self], *target), kRsbAsymmetric};
  }
  return Action::stay(kRsbAsymmetric);
}

}  // namespace

Action rsbCompute(Analysis& a, sched::RandomSource& rng) {
  if (const auto& sh = a.shiftedSet()) return shiftedCase(a, *sh);
  if (const auto& reg = a.regularSet()) return regularCase(a, *reg, rng);
  return asymmetricCase(a);
}

Action RsbOnlyAlgorithm::compute(const sim::Snapshot& snap,
                                 sched::RandomSource& rng) const {
  Analysis a(snap);
  if (!a.ok()) return Action::stay(kStay);
  if (a.selectedRobot()) return Action::stay(kTerminal);
  Action act = rsbCompute(a, rng);
  if (act.isMove()) act.path = act.path.transformed(a.denormalize());
  return act;
}

}  // namespace apf::core

#include "baseline/yy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "config/similarity.h"
#include "core/phases.h"
#include "geom/angle.h"

namespace apf::baseline {
namespace {

using config::Configuration;
using geom::Vec2;
using sim::Action;

constexpr double kTol = 1e-9;

struct Ranked {
  std::size_t idx;
  double radius;
  double angle;
};

std::vector<Ranked> rankAround(const Configuration& pts, double anchorArg,
                               std::size_t skip) {
  std::vector<Ranked> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i == skip) continue;
    const double r = pts[i].norm();
    const double a =
        (r > kTol) ? geom::norm2pi(pts[i].arg() - anchorArg) : 0.0;
    out.push_back({i, r, a});
  }
  std::sort(out.begin(), out.end(), [](const Ranked& x, const Ranked& y) {
    if (std::fabs(x.radius - y.radius) > kTol) return x.radius < y.radius;
    return x.angle < y.angle;
  });
  return out;
}

}  // namespace

Action YYAlgorithm::compute(const sim::Snapshot& snap,
                            sched::RandomSource& rng) const {
  const geom::Circle secP = snap.robots.sec();
  const geom::Circle secF = snap.pattern.sec();
  if (secP.radius <= 1e-12 || secF.radius <= 1e-12) {
    return Action::stay(core::kBaseline);
  }
  const Configuration p =
      snap.robots.transformed(snap.robots.normalizingTransform());
  const Configuration f =
      snap.pattern.transformed(snap.pattern.normalizingTransform());
  const geom::Similarity denorm =
      snap.robots.normalizingTransform().inverse();
  const std::size_t self = snap.selfIndex;

  if (config::similar(p, f, geom::Tol{1e-6, 1e-6})) {
    return Action::stay(core::kBaseline);
  }

  // Leader: the unique strictly innermost robot.
  double minR = std::numeric_limits<double>::infinity();
  for (const Vec2& q : p.points()) minR = std::min(minR, q.norm());
  std::vector<std::size_t> innermost;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (geom::normLeq(p[i], minR + kTol)) innermost.push_back(i);
  }

  if (innermost.size() > 1) {
    // Symmetry breaking with continuous randomness: each tied robot jumps a
    // uniformly random fraction of the way toward the center.
    if (std::find(innermost.begin(), innermost.end(), self) ==
        innermost.end()) {
      return Action::stay(core::kBaseline);
    }
    const double u = rng.uniform();  // 53 bits
    const double r = p[self].norm();
    if (r <= kTol) return Action::stay(core::kBaseline);
    const Vec2 dest = p[self] * (1.0 - 0.4 * u);
    geom::Path path(p[self]);
    if (geom::dist(dest, p[self]) > kTol) path.lineTo(dest);
    Action act{path, core::kBaseline};
    act.path = act.path.transformed(denorm);
    return act;
  }

  // Leader exists: build the chirality-dependent global frame. Angle 0 is
  // the leader's direction; "counterclockwise" is counterclockwise IN THIS
  // ROBOT'S LOCAL FRAME — identical across robots only under common
  // chirality, which is precisely the assumption this baseline needs.
  const std::size_t leader = innermost.front();
  if (geom::normLeq(p[leader], kTol)) {
    // Leader at the center cannot anchor an angle; nudge it outward.
    if (self == leader) {
      geom::Path path(p[self]);
      path.lineTo({0.1, 0.0});
      Action act{path, core::kBaseline};
      act.path = act.path.transformed(denorm);
      return act;
    }
    return Action::stay(core::kBaseline);
  }
  const double anchorP = p[leader].arg();

  // Pattern anchor: the innermost pattern point (ties broken by angle).
  auto fRank = rankAround(f, 0.0, f.size());
  const std::size_t fLeader = fRank.front().idx;
  const double anchorF =
      (f[fLeader].norm() > kTol) ? f[fLeader].arg() : 0.0;

  const auto pOrder = rankAround(p, anchorP, leader);
  auto fOrder = rankAround(f, anchorF, fLeader);

  Vec2 dest;
  if (self == leader) {
    dest = Vec2{std::cos(anchorP), std::sin(anchorP)} * f[fLeader].norm();
  } else {
    std::size_t rank = 0;
    for (std::size_t k = 0; k < pOrder.size(); ++k) {
      if (pOrder[k].idx == self) {
        rank = k;
        break;
      }
    }
    const Ranked& tgt = fOrder[rank];
    const double ang = anchorP + tgt.angle;
    dest = Vec2{std::cos(ang), std::sin(ang)} * tgt.radius;
  }
  geom::Path path(p[self]);
  if (geom::dist(dest, p[self]) > 1e-7) path.lineTo(dest);
  Action act{path, core::kBaseline};
  if (act.isMove()) act.path = act.path.transformed(denorm);
  return act;
}

}  // namespace apf::baseline

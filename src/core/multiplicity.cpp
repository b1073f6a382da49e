#include "core/multiplicity.h"

#include <algorithm>
#include <cmath>

#include "config/similarity.h"
#include "config/view.h"
#include "core/analysis.h"
#include "core/moves.h"
#include "core/phases.h"
#include "geom/angle.h"

namespace apf::core {

using config::Configuration;
using geom::Vec2;
using sim::Action;

std::optional<CenterMultiplicity> analyzeCenterMultiplicity(
    const Configuration& pattern, const geom::Tol& tol) {
  const geom::Circle sec = pattern.sec();
  if (sec.radius <= tol.dist) return std::nullopt;  // gathering: unsupported
  const Configuration f =
      pattern.transformed(pattern.normalizingTransform());

  std::vector<std::size_t> centerPts;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (geom::normLeq(f[i], tol.dist)) centerPts.push_back(i);
  }
  if (centerPts.size() < 2) return std::nullopt;

  // g_F: midpoint between the center and the max-view non-center point.
  const auto views =
      config::headFirstViews(f, Vec2{}, /*withMultiplicity=*/true);
  std::size_t fmaxNc = f.size();
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (geom::normLeq(f[i], tol.dist)) continue;
    if (fmaxNc == f.size() ||
        config::compareViews(views[i], views[fmaxNc]) > 0) {
      fmaxNc = i;
    }
  }
  if (fmaxNc == f.size()) return std::nullopt;
  const Vec2 gF = f[fmaxNc] * 0.5;

  CenterMultiplicity out;
  out.count = static_cast<int>(centerPts.size());
  out.fOriginal = f;
  std::vector<Vec2> tilde = f.points();
  for (std::size_t i : centerPts) tilde[i] = gF;
  out.fTilde = Configuration(std::move(tilde));
  return out;
}

std::optional<Action> centerGatherMove(Analysis& a,
                                       const CenterMultiplicity& cm) {
  const Configuration& p = a.P();
  const int m = cm.count;
  if (static_cast<int>(p.size()) <= m) return std::nullopt;

  // The m innermost robots are the candidate movers.
  std::vector<std::size_t> order(p.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return p[x].norm() < p[y].norm();
  });
  std::vector<std::size_t> movers(order.begin(), order.begin() + m);
  std::vector<std::size_t> rest(order.begin() + m, order.end());

  // Movers strictly inside the rest, and all on one ray from the center
  // (robots very close to the center have no meaningful angle and pass).
  const double maxMover = p[movers.back()].norm();
  const double minRest = p[rest.front()].norm();
  if (maxMover >= minRest - 1e-9) return std::nullopt;
  double refAngle = 0.0;
  bool haveRef = false;
  for (std::size_t i : movers) {
    if (geom::normLeq(p[i], 1e-6)) continue;
    const double ang = p[i].arg();
    if (!haveRef) {
      refAngle = ang;
      haveRef = true;
    } else if (geom::angDist(ang, refAngle) > 1e-4) {
      return std::nullopt;
    }
  }

  // The rest must already form F minus its center points.
  std::vector<Vec2> fRestPts;
  for (const Vec2& q : cm.fOriginal.points()) {
    if (q.norm() > 1e-9) fRestPts.push_back(q);
  }
  std::vector<Vec2> restPts;
  for (std::size_t i : rest) restPts.push_back(p[i]);
  const auto t = config::findSimilarity(Configuration(fRestPts),
                                        Configuration(restPts), true,
                                        geom::Tol{1e-6, 1e-6});
  if (!t) return std::nullopt;

  const Vec2 target = t->apply(Vec2{});  // the mapped pattern center
  const bool isMover =
      std::find(movers.begin(), movers.end(), a.self()) != movers.end();
  if (!isMover) return Action::stay(kMultiplicity);
  if (geom::normLeq(p[a.self()] - target, 1e-8)) {
    return Action::stay(kMultiplicity);
  }
  return Action{linePath(p[a.self()], target), kMultiplicity};
}

}  // namespace apf::core

#include "core/pattern_info.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <list>
#include <utility>

#include "config/regular.h"
#include "config/view.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::kPi;
using geom::kTwoPi;
using geom::Vec2;

constexpr double kTol = 1e-9;
constexpr double kAngTol = 1e-7;

/// c's points' distances from its SEC center over its radius, ascending;
/// the expression findSimilarity evaluates.
std::vector<double> sortedSecRadii(const Configuration& c) {
  const geom::Circle sec = c.sec();
  std::vector<double> out;
  out.reserve(c.size());
  for (const Vec2& p : c.points()) {
    out.push_back(geom::dist(p, sec.center) / sec.radius);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PatternInfo analyze(const Configuration& pattern, bool multiplicity) {
  PatternInfo out;
  out.f = pattern.transformed(pattern.normalizingTransform());
  const Configuration& f = out.f;
  out.centerF = config::centerOf(f);
  out.lF = config::secondClosestDistance(f, Vec2{});

  const geom::Circle sec = out.f.sec();
  std::vector<std::size_t> nonHolders;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (!geom::holdsSec(f.span(), i, sec)) nonHolders.push_back(i);
  }
  out.maxViewNonHolders =
      config::maxViewRobots(f, nonHolders, Vec2{}, multiplicity);
  for (std::size_t i : out.maxViewNonHolders) {
    out.fWithout.push_back(f.without(i));
    out.fWithoutRadii.push_back(sortedSecRadii(out.fWithout.back()));
  }
  out.radii = sortedSecRadii(out.f);

  if (f.size() < 4 || out.maxViewNonHolders.empty()) return out;

  out.fs = out.maxViewNonHolders.front();
  out.fPrime = f.without(out.fs);

  // The first max-view point: the front of byViewDescending's order.
  out.fmax = config::maxViewRobots(out.fPrime, Vec2{}, multiplicity).front();
  const config::PolarTable& fp = out.fPrime.polar(Vec2{});
  out.fmaxRadius = fp.radius[out.fmax];
  out.fmaxArg = fp.arg[out.fmax];

  out.thetaFPrime = kPi;
  for (std::size_t i = 0; i < out.fPrime.size(); ++i) {
    if (i == out.fmax) continue;
    if (geom::distEq(fp.radius[i], out.fmaxRadius)) {
      out.thetaFPrime =
          std::min(out.thetaFPrime, geom::angDist(fp.arg[i], out.fmaxArg));
    }
  }

  const auto view = config::localView(out.fPrime, out.fmax, Vec2{});
  out.fOrient = (view.orientation == -1) ? -1.0 : 1.0;

  out.targets.reserve(out.fPrime.size());
  for (std::size_t i = 0; i < out.fPrime.size(); ++i) {
    const double r = fp.radius[i];
    double ang = 0.0;
    if (r > kTol) {
      ang = geom::norm2pi(out.fOrient * (fp.arg[i] - out.fmaxArg));
      if (ang > kTwoPi - kAngTol) ang = 0.0;
    }
    out.targets.push_back({r, ang});
  }

  std::vector<double> radii;
  for (const auto& t : out.targets) radii.push_back(t.radius);
  std::sort(radii.begin(), radii.end(), std::greater<>());
  for (double r : radii) {
    if (out.circleRadii.empty() || out.circleRadii.back() - r > kTol) {
      out.circleRadii.push_back(r);
      out.circleCounts.push_back(1);
    } else {
      ++out.circleCounts.back();
    }
  }
  for (double radius : out.circleRadii) {
    std::vector<double> angles;
    for (const auto& t : out.targets) {
      if (geom::distEq(t.radius, radius)) angles.push_back(t.angle);
    }
    std::sort(angles.begin(), angles.end());
    out.circleTargets.push_back(std::move(angles));
  }
  out.valid = true;
  return out;
}

PatternInfo build(const Configuration& pattern, bool multiplicity) {
  if (multiplicity) {
    if (auto cm = analyzeCenterMultiplicity(pattern)) {
      PatternInfo out = analyze(cm->fTilde, multiplicity);
      out.centerMultiplicity = std::move(cm);
      return out;
    }
  }
  return analyze(pattern, multiplicity);
}

/// True when a and b hold the same points bit for bit.
bool sameBits(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  auto bits = [](Vec2 v) {
    return std::pair(std::bit_cast<std::uint64_t>(v.x),
                     std::bit_cast<std::uint64_t>(v.y));
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](Vec2 u, Vec2 v) { return bits(u) == bits(v); });
}

}  // namespace

const PatternInfo& PatternInfo::get(const Configuration& pattern,
                                    bool multiplicity) {
  struct Entry {
    bool multiplicity;
    std::vector<Vec2> pattern;  ///< the raw points, the key
    PatternInfo info;
  };
  // List nodes never move, so a returned reference stays valid until the
  // next clear.
  thread_local std::list<Entry> cache;
  for (const Entry& e : cache) {
    if (e.multiplicity == multiplicity &&
        sameBits(e.pattern, pattern.points())) {
      return e.info;
    }
  }
  if (cache.size() > 64) cache.clear();  // bound memory across sweeps
  // build() warms circles through counted sec() calls. Which run of a
  // thread misses this cache depends on the runs it handled before, so
  // keep those calls out of the per-run counter deltas.
  const config::GeomCacheCounters counters = config::geomCacheCounters();
  cache.push_back(
      {multiplicity, pattern.points(), build(pattern, multiplicity)});
  config::geomCacheCounters() = counters;
  return cache.back().info;
}

}  // namespace apf::core

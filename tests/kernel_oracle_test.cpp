/// Differential tests of the geometry kernels against test-only copies of
/// the straightforward versions they replaced:
///   - Welzl with a fresh std::mt19937 and std::shuffle on every call (the
///     kernel replays a permutation built once per size);
///   - holdsSec recomputing the whole circle (callers now pass a memoized
///     one);
///   - symmetryAxes reflecting every deduplicated candidate in full (the
///     kernel first rejects candidates whose reflected pts[0] has no
///     partner within a radius window);
///   - symmetryAxes reducing candidates mod pi with fmod and reflecting
///     each in full (the kernel reduces them by an exact subtraction and
///     skips, before any cos/sin, candidates far from every partner's
///     mirror axis);
///   - views, sortedDirections, rayDirections, alphaMinAt and
///     maxViewRobots computing every angle and radius with atan2/hypot
///     themselves (the kernels read Configuration::polar), each view
///     sorting both orientations' sequences in full (the kernel lists the
///     points by radius once and sorts only runs of equal rho);
///   - verifyShift's pre-rejection taking alphamin(P') of a built P' (the
///     kernel, alphaMinMoved, reads P's polar table with one entry
///     recomputed);
///   - geom::norm2pi calling fmod on every angle (the kernel skips it when
///     |a| < 2pi);
///   - shiftedRegularSetOf without its certificate pass (the kernel first
///     tries to prove that no candidate can pass verifyShift);
///   - allViews ordering the robots by full views (headFirstViews builds a
///     full key only for a robot whose first triple another robot shares);
///   - transformed(normalizingTransform()) and polar({0, 0}) built afresh
///     (Configuration::normalized() carries them from the previous Look,
///     checked on the engine's own snapshots).
/// Every comparison is bitwise on the doubles: the faster kernels must not
/// change a single decision or value anywhere downstream. Analysis::maxViewP
/// is checked against its definition, maxViewRobots(P, centerP()).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "config/generator.h"
#include "config/rays.h"
#include "config/shifted.h"
#include "config/symmetry.h"
#include "config/view.h"
#include "core/analysis.h"
#include "core/form_pattern.h"
#include "core/pattern_info.h"
#include "geom/angle.h"
#include "geom/sec.h"
#include "io/patterns.h"
#include "sim/campaign.h"
#include "sim/engine.h"

namespace apf {
namespace {

using config::Configuration;
using config::MultiPoint;
using config::Rng;
using config::View;
using geom::Circle;
using geom::Tol;
using geom::Vec2;

// --- Oracles: the kernels as they were before the shortcuts. ---

namespace oracle {

double norm2pi(double a) {
  double r = std::fmod(a, geom::kTwoPi);
  if (r < 0) r += geom::kTwoPi;
  if (r >= geom::kTwoPi) r = 0.0;
  return r;
}

double angDist(double a, double b) {
  const double d = oracle::norm2pi(b - a);
  return std::min(d, geom::kTwoPi - d);
}

Circle circleFrom2(Vec2 a, Vec2 b) {
  return {geom::midpoint(a, b), geom::dist(a, b) / 2.0};
}

Circle circleFrom3(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 ab = b - a, ac = c - a;
  const double d = 2.0 * ab.cross(ac);
  if (std::fabs(d) < 1e-30) {
    Circle best = circleFrom2(a, b);
    const Circle bc = circleFrom2(b, c);
    const Circle ca = circleFrom2(c, a);
    if (bc.radius > best.radius) best = bc;
    if (ca.radius > best.radius) best = ca;
    return best;
  }
  const double abn = ab.norm2(), acn = ac.norm2();
  const Vec2 center{a.x + (ac.y * abn - ab.y * acn) / d,
                    a.y + (ab.x * acn - ac.x * abn) / d};
  return {center, geom::dist(center, a)};
}

bool inCircle(const Circle& c, Vec2 p) {
  return geom::dist(p, c.center) <= c.radius * (1.0 + 1e-14) + 1e-14;
}

Circle secWithTwo(const std::vector<Vec2>& pts, std::size_t end, Vec2 p,
                  Vec2 q) {
  Circle c = circleFrom2(p, q);
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) c = circleFrom3(p, q, pts[i]);
  }
  return c;
}

Circle secWithOne(const std::vector<Vec2>& pts, std::size_t end, Vec2 p) {
  Circle c{p, 0.0};
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) {
      c = (c.radius == 0.0) ? circleFrom2(p, pts[i])
                            : secWithTwo(pts, i, p, pts[i]);
    }
  }
  return c;
}

Circle smallestEnclosingCircle(std::span<const Vec2> pts) {
  if (pts.empty()) return {};
  if (pts.size() == 1) return {pts[0], 0.0};
  std::vector<Vec2> shuffled(pts.begin(), pts.end());
  std::mt19937 rng(0x5ec0c13eU);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  Circle c{shuffled[0], 0.0};
  for (std::size_t i = 1; i < shuffled.size(); ++i) {
    if (!inCircle(c, shuffled[i])) c = secWithOne(shuffled, i, shuffled[i]);
  }
  return c;
}

bool holdsSec(std::span<const Vec2> pts, std::size_t i,
              const Tol& tol = geom::kDefaultTol) {
  const Circle whole = oracle::smallestEnclosingCircle(pts);
  if (!whole.onBoundary(pts[i], tol)) return false;
  std::vector<Vec2> rest;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j != i) rest.push_back(pts[j]);
  }
  const Circle without = oracle::smallestEnclosingCircle(rest);
  return !geom::distEq(without.radius, whole.radius, tol) ||
         !geom::nearlyEqual(without.center, whole.center, tol);
}

Vec2 reflectAcross(Vec2 q, Vec2 center, Vec2 u) {
  const Vec2 d = q - center;
  return center + u * (2.0 * d.dot(u)) - d;
}

bool reflectionMapsToSelf(const Configuration& p, Vec2 center, double axisDir,
                          const Tol& tol) {
  const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
  std::vector<bool> used(p.size(), false);
  for (const Vec2& q : p.points()) {
    const Vec2 r = reflectAcross(q, center, u);
    bool found = false;
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (!used[j] && geom::nearlyEqual(r, p[j], tol)) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::vector<double> candidateAxes(const Configuration& p, Vec2 center,
                                  const Tol& tol) {
  std::vector<double> candidates;
  const auto& pts = p.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2 di = pts[i] - center;
    if (di.norm() <= tol.dist) continue;
    const double ai = oracle::norm2pi(di.arg());
    candidates.push_back(std::fmod(ai, geom::kPi));
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const Vec2 dj = pts[j] - center;
      if (dj.norm() <= tol.dist) continue;
      const double aj = oracle::norm2pi(dj.arg());
      candidates.push_back(std::fmod((ai + aj) / 2.0, geom::kPi));
      candidates.push_back(
          std::fmod((ai + aj) / 2.0 + geom::kPi / 2.0, geom::kPi));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<double> symmetryAxes(const Configuration& p, Vec2 center,
                                 const Tol& tol = geom::kDefaultTol) {
  std::vector<double> axes;
  for (double a : candidateAxes(p, center, tol)) {
    if (!axes.empty() && std::fabs(a - axes.back()) <= tol.ang) continue;
    if (oracle::reflectionMapsToSelf(p, center, a, tol)) axes.push_back(a);
  }
  if (axes.size() >= 2 &&
      std::fabs(axes.front() + geom::kPi - axes.back()) <= tol.ang) {
    axes.pop_back();
  }
  return axes;
}


// --- Views, directions and max views with their own atan2/hypot. ---

struct Entry {
  std::int64_t rho;
  std::int64_t theta;
  std::int64_t count;
  auto operator<=>(const Entry&) const = default;
};

std::vector<std::int64_t> flatten(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end());
  std::vector<std::int64_t> key;
  key.reserve(entries.size() * 3);
  for (const Entry& e : entries) {
    key.push_back(e.rho);
    key.push_back(e.theta);
    key.push_back(e.count);
  }
  return key;
}

View localViewGrouped(const Configuration& p, std::size_t i,
                      const std::vector<MultiPoint>& groups, Vec2 center,
                      bool withMultiplicity, const Tol& tol) {
  const Vec2 r = p[i];
  const double rDist = geom::dist(r, center);
  if (rDist <= tol.dist) return View{{}, 0, true};
  const double rArg = (r - center).arg();

  std::array<std::vector<Entry>, 2> seqs;  // [0] = ccw, [1] = cw
  for (const MultiPoint& g : groups) {
    const double d = geom::dist(g.pos, center);
    const std::int64_t rho = config::viewQuantize(d / rDist);
    const std::int64_t count = withMultiplicity ? g.count : 1;
    double rel = 0.0;
    if (d > tol.dist) rel = oracle::norm2pi((g.pos - center).arg() - rArg);
    const double relCw = (rel == 0.0) ? 0.0 : geom::kTwoPi - rel;
    const std::int64_t full = config::viewQuantize(geom::kTwoPi);
    const std::int64_t tCcw = config::viewQuantize(rel) % full;
    const std::int64_t tCw = config::viewQuantize(relCw) % full;
    seqs[0].push_back({rho, tCcw, count});
    seqs[1].push_back({rho, tCw, count});
  }

  std::vector<std::int64_t> keyCcw = flatten(std::move(seqs[0]));
  std::vector<std::int64_t> keyCw = flatten(std::move(seqs[1]));
  if (keyCcw == keyCw) return View{std::move(keyCcw), 0, false};
  if (keyCcw > keyCw) return View{std::move(keyCcw), +1, false};
  return View{std::move(keyCw), -1, false};
}

std::vector<View> allViews(const Configuration& p, Vec2 center,
                           bool withMultiplicity) {
  const auto groups = p.grouped();
  std::vector<View> out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    out.push_back(localViewGrouped(p, i, groups, center, withMultiplicity,
                                   geom::kDefaultTol));
  }
  return out;
}

/// The members of `subset` whose view no other member's view exceeds.
std::vector<std::size_t> maxAmong(const std::vector<View>& views,
                                  const std::vector<std::size_t>& subset) {
  std::vector<std::size_t> out;
  for (std::size_t i : subset) {
    bool isMax = true;
    for (std::size_t j : subset) {
      if (config::compareViews(views[j], views[i]) > 0) {
        isMax = false;
        break;
      }
    }
    if (isMax) out.push_back(i);
  }
  return out;
}

std::optional<std::vector<config::DirEntry>> sortedDirections(
    const Configuration& p, std::span<const std::size_t> subset, Vec2 c,
    const Tol& tol) {
  std::vector<config::DirEntry> dirs;
  for (std::size_t i : subset) {
    const Vec2 d = p[i] - c;
    if (d.norm() <= tol.dist) return std::nullopt;
    dirs.push_back({oracle::norm2pi(d.arg()), i});
  }
  std::sort(dirs.begin(), dirs.end(),
            [](const config::DirEntry& a, const config::DirEntry& b) {
              return a.angle < b.angle;
            });
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const double next = (k + 1 < dirs.size()) ? dirs[k + 1].angle
                                              : dirs[0].angle + geom::kTwoPi;
    if (next - dirs[k].angle <= tol.ang) return std::nullopt;
  }
  return dirs;
}

std::vector<double> rayDirections(const Configuration& m, Vec2 c,
                                  const Tol& tol) {
  std::vector<double> dirs;
  for (const Vec2& q : m.points()) {
    const Vec2 d = q - c;
    if (d.norm() <= tol.dist) continue;
    dirs.push_back(oracle::norm2pi(d.arg()));
  }
  std::sort(dirs.begin(), dirs.end());
  std::vector<double> out;
  for (double a : dirs) {
    if (out.empty() || a - out.back() > tol.ang) out.push_back(a);
  }
  if (out.size() >= 2 && out.front() + geom::kTwoPi - out.back() <= tol.ang) {
    out.pop_back();
  }
  return out;
}

double alphaMin(const Configuration& m, Vec2 c, const Tol& tol) {
  const auto dirs = oracle::rayDirections(m, c, tol);
  if (dirs.size() < 2) return geom::kTwoPi;
  double best = geom::kTwoPi;
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const double next = (k + 1 < dirs.size()) ? dirs[k + 1]
                                              : dirs[0] + geom::kTwoPi;
    const double gap = next - dirs[k];
    best = std::min(best, std::min(gap, geom::kTwoPi - gap));
  }
  return best;
}

/// verifyShift's pre-rejection value: alphamin(P') with P' built, P' being
/// p with point i moved to `to`.
double alphaMinOfBuilt(const Configuration& p, std::size_t i, Vec2 to, Vec2 c,
                       const Tol& tol) {
  std::vector<Vec2> pts = p.points();
  pts[i] = to;
  return oracle::alphaMin(Configuration(std::move(pts)), c, tol);
}

double alphaMinAt(Vec2 p, const Configuration& m, Vec2 c, const Tol& tol) {
  const Vec2 dp = p - c;
  if (dp.norm() <= tol.dist) return geom::kTwoPi;
  const double ap = oracle::norm2pi(dp.arg());
  double best = geom::kTwoPi;
  for (const Vec2& q : m.points()) {
    const Vec2 d = q - c;
    if (d.norm() <= tol.dist) continue;
    const double a = oracle::angDist(ap, oracle::norm2pi(d.arg()));
    if (a > tol.ang) best = std::min(best, a);
  }
  return best;
}

// shiftedRegularSetOf as it was before its certificate pass: every
// candidate robot's vacancy proposals are generated, sorted, clustered and
// verified in order, up to the 64-attempt cap.

struct VacancyCandidate {
  double thetaV = 0.0;
  int tightCount = 0;
  bool plausible = false;
};

std::optional<config::ShiftedSetInfo> verifyShift(const Configuration& p,
                                                  std::size_t ir, Vec2 rPrime,
                                                  Vec2 cApprox,
                                                  const Tol& tol) {
  const Vec2 r = p[ir];
  if (geom::nearlyEqual(r, rPrime, tol)) return std::nullopt;
  for (const Vec2& q : p.points()) {
    if (geom::nearlyEqual(rPrime, q, tol)) return std::nullopt;
  }
  {
    const double aMinApprox =
        config::alphaMinMoved(p, ir, rPrime, cApprox, tol);
    const double shiftApprox = geom::angMin(r, cApprox, rPrime);
    if (aMinApprox >= geom::kTwoPi || shiftApprox > 0.3 * aMinApprox) {
      return std::nullopt;
    }
  }
  std::vector<Vec2> pts = p.points();
  pts[ir] = rPrime;
  const Configuration pPrime(std::move(pts));
  const auto reg = config::regularSetOf(pPrime, tol);
  if (!reg) return std::nullopt;
  if (std::find(reg->indices.begin(), reg->indices.end(), ir) ==
      reg->indices.end()) {
    return std::nullopt;
  }
  const Vec2 c = reg->grid.center;
  const std::vector<double>& radius = p.polar(c).radius;
  const double rd = radius[ir];
  if (!geom::distEq(rd, geom::dist(rPrime, c), tol)) return std::nullopt;
  for (double d : radius) {
    if (d < rd - tol.dist) return std::nullopt;
  }
  const double aMinPPrime = config::alphaMin(pPrime, c, tol);
  if (aMinPPrime >= geom::kTwoPi) return std::nullopt;
  const double shiftAngle = geom::angMin(r, c, rPrime);
  const double eps = shiftAngle / aMinPPrime;
  if (eps <= 0.0 || shiftAngle <= tol.ang || eps > 0.25 + 1e-9) {
    return std::nullopt;
  }
  if (!(config::alphaMinAt(r, p, c, tol) <
        config::alphaMinAt(rPrime, pPrime, c, tol))) {
    return std::nullopt;
  }
  config::ShiftedSetInfo info;
  info.grid = reg->grid;
  info.biangular = reg->biangular;
  info.indices = reg->indices;
  info.shiftedRobot = ir;
  info.associatedPos = rPrime;
  info.epsilon = eps;
  info.alphaMinPPrime = aMinPPrime;
  info.wholeConfig = reg->wholeConfig;
  return info;
}

std::vector<VacancyCandidate> proposeVacancies(const Configuration& p,
                                               std::size_t ir, Vec2 c,
                                               const Tol& tol) {
  const config::PolarTable& t = p.polar(c);
  if (t.radius[ir] <= tol.dist) return {};
  const double dirR = t.arg[ir];
  const int n = static_cast<int>(p.size());
  struct Raw {
    double thetaV;
    int familyOrder;
  };
  std::vector<Raw> raw;
  for (int jf = 2; jf <= n; ++jf) {
    const double step = geom::kTwoPi / jf;
    for (std::size_t q = 0; q < p.size(); ++q) {
      if (q == ir || t.radius[q] <= tol.dist) continue;
      const double a = t.arg[q];
      const double delta = a - dirR;
      const double k = std::round(delta / step);
      const double thetaV = geom::norm2pi(a - k * step);
      const double off = geom::normPi(thetaV - dirR);
      if (std::fabs(off) <= tol.ang) continue;
      if (std::fabs(off) > step / 4.0 + 1e-7) continue;
      raw.push_back({thetaV, jf});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Raw& a, const Raw& b) { return a.thetaV < b.thetaV; });
  std::vector<VacancyCandidate> out;
  std::size_t i = 0;
  while (i < raw.size()) {
    std::size_t j = i;
    while (j + 1 < raw.size() && raw[j + 1].thetaV - raw[i].thetaV < 1e-6) ++j;
    const double med = raw[(i + j) / 2].thetaV;
    VacancyCandidate cand{med, 0, false};
    for (std::size_t k = i; k <= j; ++k) {
      const int order = raw[k].familyOrder;
      int tight = 0;
      for (std::size_t l = i; l <= j; ++l) {
        if (raw[l].familyOrder == order &&
            std::fabs(raw[l].thetaV - med) < 1e-9) {
          ++tight;
        }
      }
      cand.tightCount = std::max(cand.tightCount, tight);
      if (tight + 1 >= order) cand.plausible = true;
    }
    out.push_back(cand);
    i = j + 1;
  }
  std::sort(out.begin(), out.end(),
            [](const VacancyCandidate& a, const VacancyCandidate& b) {
              return a.tightCount > b.tightCount;
            });
  return out;
}

std::vector<Vec2> refineWholeGridCandidates(const Configuration& p,
                                            std::size_t ir, Vec2 weberWhole,
                                            const Tol& tol) {
  const int n = static_cast<int>(p.size());
  if (n < 5) return {};
  std::vector<Vec2> candidates;
  const Vec2 inits[2] = {weberWhole, geom::weberPoint(p.without(ir).span())};
  for (const Vec2& c0 : inits) {
    struct Dir {
      double a;
      Vec2 pos;
    };
    const config::PolarTable& t = p.polar(c0);
    std::vector<Dir> dirs;
    bool degenerate = false;
    for (std::size_t q = 0; q < p.size() && !degenerate; ++q) {
      if (q == ir) continue;
      degenerate = t.radius[q] <= tol.dist;
      dirs.push_back({t.dir[q], p[q]});
    }
    if (degenerate) continue;
    std::sort(dirs.begin(), dirs.end(),
              [](const Dir& a, const Dir& b) { return a.a < b.a; });
    const std::size_t m = dirs.size();
    auto gapAfter = [&](std::size_t k) {
      const double next =
          (k + 1 < m) ? dirs[k + 1].a : dirs[0].a + geom::kTwoPi;
      return next - dirs[k].a;
    };
    auto fitVacancyAfter = [&](std::size_t v, bool biangular, double alpha,
                               double beta) {
      std::vector<Vec2> pts;
      std::vector<int> rayIndex;
      for (std::size_t k = 0; k < m; ++k) {
        pts.push_back(dirs[(v + 1 + k) % m].pos);
        rayIndex.push_back(static_cast<int>(k + 1));
      }
      const geom::AngularGrid init{c0, dirs[(v + 1) % m].a - alpha, alpha,
                                   beta, n};
      if (auto fit =
              config::fitGridWithin(pts, rayIndex, n, biangular, init, tol)) {
        const Vec2 c = fit->grid.center;
        const double ray0 = fit->grid.rayDir(0);
        candidates.push_back(c + Vec2{std::cos(ray0), std::sin(ray0)} *
                                     geom::dist(p[ir], c));
      }
    };
    const double base = geom::kTwoPi / n;
    {
      std::size_t v = 0;
      double maxGap = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        if (gapAfter(k) > maxGap) {
          maxGap = gapAfter(k);
          v = k;
        }
      }
      if (std::fabs(maxGap - 2.0 * base) < 0.5 * base) {
        fitVacancyAfter(v, false, base, base);
      }
    }
    if (n % 2 == 0 && n >= 6) {
      const double pairSum = 2.0 * geom::kTwoPi / n;
      for (std::size_t v = 0; v < m; ++v) {
        if (std::fabs(gapAfter(v) - pairSum) > 0.45 * pairSum) continue;
        const double betaInit = gapAfter((v + 1) % m);
        const double alphaInit = pairSum - betaInit;
        if (alphaInit < 0.02 * pairSum || alphaInit > 0.98 * pairSum) continue;
        fitVacancyAfter(v, true, alphaInit, betaInit);
      }
    }
  }
  return candidates;
}

std::optional<config::ShiftedSetInfo> shiftedRegularSetOf(
    const Configuration& p, const Tol& tol = geom::kDefaultTol) {
  const std::size_t n = p.size();
  if (n < 4) return std::nullopt;
  const Vec2 weberWhole = p.weberPoint();
  const Vec2 centers[2] = {p.sec().center, weberWhole};
  std::vector<bool> isCandidate(n, false);
  for (const Vec2& c : centers) {
    const std::vector<double>& radius = p.polar(c).radius;
    double dmin = std::numeric_limits<double>::infinity();
    for (double d : radius) dmin = std::min(dmin, d);
    for (std::size_t i = 0; i < n; ++i) {
      if (radius[i] <= dmin + tol.dist) isCandidate[i] = true;
    }
  }
  const Vec2 c = centers[0];
  const config::PolarTable& around = p.polar(c);
  int attempts = 0;
  constexpr int kMaxAttempts = 64;
  for (std::size_t ir = 0; ir < n; ++ir) {
    if (!isCandidate[ir]) continue;
    const double rad = around.radius[ir];
    if (rad > tol.dist) {
      for (const VacancyCandidate& cand : proposeVacancies(p, ir, c, tol)) {
        if (!cand.plausible) continue;
        if (++attempts > kMaxAttempts) return std::nullopt;
        const Vec2 rPrime =
            c + Vec2{std::cos(cand.thetaV), std::sin(cand.thetaV)} * rad;
        if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
      }
    }
    for (const Vec2& rPrime :
         refineWholeGridCandidates(p, ir, weberWhole, tol)) {
      if (++attempts > kMaxAttempts) return std::nullopt;
      if (auto info = verifyShift(p, ir, rPrime, weberWhole, tol)) {
        return info;
      }
    }
    if (rad > tol.dist) {
      const Configuration restCfg = p.without(ir);
      const double dirR = around.arg[ir];
      for (double axis : config::symmetryAxes(restCfg, c, tol)) {
        const config::PolarTable& rt = restCfg.polar(c);
        for (std::size_t q = 0; q < restCfg.size(); ++q) {
          if (rt.radius[q] <= tol.dist) continue;
          const double thetaV = geom::norm2pi(2.0 * axis - rt.arg[q]);
          if (std::fabs(geom::normPi(thetaV - dirR)) > 0.6) continue;
          if (++attempts > kMaxAttempts) return std::nullopt;
          const Vec2 rPrime =
              c + Vec2{std::cos(thetaV), std::sin(thetaV)} * rad;
          if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
        }
      }
    }
  }
  return std::nullopt;
}


}  // namespace oracle

// --- Bitwise comparison helpers. ---

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expectSameCircle(const Circle& got, const Circle& want,
                      const std::string& what) {
  EXPECT_EQ(bits(got.center.x), bits(want.center.x)) << what;
  EXPECT_EQ(bits(got.center.y), bits(want.center.y)) << what;
  EXPECT_EQ(bits(got.radius), bits(want.radius)) << what;
}

void expectSameAxes(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(bits(got[k]), bits(want[k])) << what << " axis " << k;
  }
}

/// Welzl, every holdsSec (plain and with the memoized circle) and
/// secHolders against the oracles.
void checkSec(const Configuration& p, const std::string& what) {
  const Circle want = oracle::smallestEnclosingCircle(p.span());
  expectSameCircle(geom::smallestEnclosingCircle(p.span()), want, what);
  expectSameCircle(p.sec(), want, what + " (memoized)");
  std::vector<std::size_t> holders;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const bool holds = oracle::holdsSec(p.span(), i);
    if (holds) holders.push_back(i);
    EXPECT_EQ(geom::holdsSec(p.span(), i), holds) << what << " i=" << i;
    EXPECT_EQ(geom::holdsSec(p.span(), i, p.sec()), holds)
        << what << " i=" << i << " (memoized circle)";
  }
  EXPECT_EQ(geom::secHolders(p.span()), holders) << what;
}

/// symmetryAxes against the oracle around `center`, under `tol`.
void checkAxes(const Configuration& p, Vec2 center, const Tol& tol,
               const std::string& what) {
  expectSameAxes(config::symmetryAxes(p, center, tol),
                 oracle::symmetryAxes(p, center, tol), what);
}

/// The full battery around the SEC center and around a second center.
void checkAll(const Configuration& p, Vec2 otherCenter,
              const std::string& what) {
  checkSec(p, what);
  const Vec2 c = p.sec().center;
  checkAxes(p, c, geom::kDefaultTol, what + " axes@sec");
  checkAxes(p, otherCenter, geom::kDefaultTol, what + " axes@other");
}

/// alphaMinMoved against alphamin of the built configuration, for a few
/// robots each moved along its circle around c (as a shifted candidate r'
/// is), onto c, onto another robot and onto itself.
void checkAlphaMinMoved(const Configuration& p, Vec2 c,
                        const std::string& what) {
  const Tol tol = geom::kDefaultTol;
  for (std::size_t i = 0; i < p.size(); i += 1 + p.size() / 8) {
    const double rad = geom::dist(p[i], c);
    const double dir = (p[i] - c).arg();
    std::vector<Vec2> moves = {c, p[(i + 1) % p.size()], p[i]};
    for (double turn : {1e-3, -0.05, 0.3, geom::kPi}) {
      moves.push_back(c + Vec2{std::cos(dir + turn), std::sin(dir + turn)} *
                              rad);
    }
    for (std::size_t k = 0; k < moves.size(); ++k) {
      const double want = oracle::alphaMinOfBuilt(p, i, moves[k], c, tol);
      EXPECT_EQ(bits(config::alphaMinMoved(p, i, moves[k], c, tol)),
                bits(want))
          << what << " alphaMinMoved i=" << i << " move " << k;
      std::vector<Vec2> pts = p.points();
      pts[i] = moves[k];
      EXPECT_EQ(bits(config::alphaMin(Configuration(std::move(pts)), c, tol)),
                bits(want))
          << what << " alphaMin i=" << i << " move " << k;
    }
  }
}

/// Views (keys, orientations, center flags), max-view index lists,
/// sorted direction lists, ray directions and alphaMinAt around `c`, all
/// bitwise against the oracles.
void checkPolarKernels(const Configuration& p, Vec2 c,
                       const std::string& what) {
  const Tol tol = geom::kDefaultTol;
  std::vector<std::size_t> all(p.size()), even;
  for (std::size_t i = 0; i < p.size(); ++i) {
    all[i] = i;
    if (i % 2 == 0) even.push_back(i);
  }
  for (bool mult : {false, true}) {
    const std::string tag = what + (mult ? " (multiplicity)" : "");
    const auto want = oracle::allViews(p, c, mult);
    EXPECT_EQ(config::allViews(p, c, mult), want) << tag;
    for (std::size_t i = 0; i < p.size(); i += 3) {
      EXPECT_EQ(config::localView(p, i, c, mult), want[i]) << tag << " i=" << i;
    }
    EXPECT_EQ(config::maxViewRobots(p, c, mult), oracle::maxAmong(want, all))
        << tag;
    EXPECT_EQ(config::maxViewRobots(p, even, c, mult),
              oracle::maxAmong(want, even))
        << tag << " even subset";
  }
  for (const auto& subset : {all, even}) {
    const auto got = config::sortedDirections(p, subset, c, tol);
    const auto want = oracle::sortedDirections(p, subset, c, tol);
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (!got) continue;
    ASSERT_EQ(got->size(), want->size()) << what;
    for (std::size_t k = 0; k < got->size(); ++k) {
      EXPECT_EQ(bits((*got)[k].angle), bits((*want)[k].angle)) << what;
      EXPECT_EQ((*got)[k].index, (*want)[k].index) << what;
    }
  }
  expectSameAxes(config::rayDirections(p, c, tol),
                 oracle::rayDirections(p, c, tol), what + " rays");
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(bits(config::alphaMinAt(p[i], p, c, tol)),
              bits(oracle::alphaMinAt(p[i], p, c, tol)))
        << what << " alphaMinAt i=" << i;
  }
  checkAlphaMinMoved(p, c, what);
}

/// Analysis::maxViewP of the snapshot against its definition: the max-view
/// robots of all of P around centerP().
void checkMaxViewP(const sim::Snapshot& snap, const std::string& what) {
  core::Analysis fast(snap);
  core::Analysis slow(snap);
  if (!fast.ok()) return;
  EXPECT_EQ(fast.maxViewP(), config::maxViewRobots(slow.P(), slow.centerP(),
                                                   slow.multiplicity()))
      << what;
}

/// shiftedRegularSetOf against the oracle, every field of the result
/// bitwise. Returns whether the certificate pass answered the call.
bool checkShifted(const Configuration& p, const std::string& what) {
  const auto want = oracle::shiftedRegularSetOf(p);
  const std::uint64_t before = config::geomCacheCounters().shiftCertified;
  const auto got = config::shiftedRegularSetOf(p);
  const bool certified = config::geomCacheCounters().shiftCertified != before;
  EXPECT_FALSE(certified && want.has_value()) << what;
  EXPECT_EQ(got.has_value(), want.has_value()) << what;
  if (!got || !want) return certified;
  const geom::AngularGrid& g = got->grid;
  const geom::AngularGrid& w = want->grid;
  EXPECT_EQ(bits(g.center.x), bits(w.center.x)) << what;
  EXPECT_EQ(bits(g.center.y), bits(w.center.y)) << what;
  EXPECT_EQ(bits(g.theta0), bits(w.theta0)) << what;
  EXPECT_EQ(bits(g.alpha), bits(w.alpha)) << what;
  EXPECT_EQ(bits(g.beta), bits(w.beta)) << what;
  EXPECT_EQ(g.numRays, w.numRays) << what;
  EXPECT_EQ(got->biangular, want->biangular) << what;
  EXPECT_EQ(got->indices, want->indices) << what;
  EXPECT_EQ(got->shiftedRobot, want->shiftedRobot) << what;
  EXPECT_EQ(bits(got->associatedPos.x), bits(want->associatedPos.x)) << what;
  EXPECT_EQ(bits(got->associatedPos.y), bits(want->associatedPos.y)) << what;
  EXPECT_EQ(bits(got->epsilon), bits(want->epsilon)) << what;
  EXPECT_EQ(bits(got->alphaMinPPrime), bits(want->alphaMinPPrime)) << what;
  EXPECT_EQ(got->wholeConfig, want->wholeConfig) << what;
  return certified;
}

Configuration mapped(const Configuration& p, double scale, Vec2 offset) {
  std::vector<Vec2> out;
  for (const Vec2& q : p.points()) out.push_back(q * scale + offset);
  return Configuration(std::move(out));
}

Configuration twoConcentric(std::size_t k, double r1, double r2, double phase) {
  Configuration p = config::regularPolygon(k, r1, {}, 0.0);
  const Configuration inner = config::regularPolygon(k, r2, {}, phase);
  for (const Vec2& q : inner.points()) p.push_back(q);
  return p;
}

// --- Corpora. ---

TEST(KernelOracleTest, RandomConfigurations) {
  Rng rng(20161);
  for (std::size_t n = 3; n <= 128; n += (n < 24 ? 1 : 13)) {
    for (int rep = 0; rep < 3; ++rep) {
      const Configuration p = config::randomConfiguration(n, rng, 2.0, 1e-3);
      checkAll(p, Vec2{0.1, -0.2},
               "random n=" + std::to_string(n) + " rep=" + std::to_string(rep));
    }
  }
}

TEST(KernelOracleTest, RegularPolygons) {
  for (std::size_t m = 3; m <= 40; ++m) {
    const Configuration p = config::regularPolygon(m, 1.5, {0.3, -0.7}, 0.2);
    checkAll(p, Vec2{0.3, -0.7}, "m-gon m=" + std::to_string(m));
    // Axes must actually be found here, so the found path is exercised.
    EXPECT_EQ(config::symmetryAxes(p, p.sec().center).size(), m)
        << "m-gon m=" << m;
  }
}

TEST(KernelOracleTest, TwoConcentricPolygons) {
  for (std::size_t k = 3; k <= 24; ++k) {
    for (double phase : {0.0, geom::kPi / static_cast<double>(k), 0.3}) {
      const Configuration p = twoConcentric(k, 1.0, 0.55, phase);
      checkAll(p, Vec2{}, "two " + std::to_string(k) + "-gons phase " +
                              std::to_string(phase));
    }
  }
}

TEST(KernelOracleTest, AxialStarts) {
  Rng rng(77);
  for (int pairs = 1; pairs <= 12; ++pairs) {
    for (int onAxis = 0; onAxis <= 3; ++onAxis) {
      const Configuration p = config::axialConfiguration(pairs, onAxis, rng);
      checkAll(p, Vec2{}, "axial pairs=" + std::to_string(pairs) +
                              " onAxis=" + std::to_string(onAxis));
    }
  }
}

/// Symmetric inputs with one point moved 0.5x or 2x tol.dist, or pts[0]
/// moved 0.9x tol.dist radially: the oracle keeps the axis in the first and
/// last cases and loses it in the second, and the kernel must do exactly
/// the same.
TEST(KernelOracleTest, PerturbedOffSymmetry) {
  Rng rng(31);
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  const double tol = geom::kDefaultTol.dist;
  for (int trial = 0; trial < 40; ++trial) {
    Configuration base =
        (trial % 2 == 0)
            ? config::axialConfiguration(3 + trial % 5, trial % 3, rng)
            : twoConcentric(4 + trial % 6, 1.0, 0.6, 0.0);
    for (double factor : {0.5, 2.0}) {
      Configuration p = base;
      const std::size_t victim = static_cast<std::size_t>(trial) % p.size();
      const double a = uang(rng);
      p[victim] += Vec2{std::cos(a), std::sin(a)} * (factor * tol);
      checkAll(p, Vec2{}, "perturbed trial " + std::to_string(trial) +
                              " factor " + std::to_string(factor));
    }
    // pts[0] moved 0.9x tol.dist away from the center: its reflection stays
    // within tol.dist of its mirror partner, whose radius differs from its
    // own by 0.9x tol.dist, so a partner window narrower than tol.dist
    // would drop true axes.
    if (base[0].norm() > 0.0) {
      Configuration p = base;
      p[0] += base[0].normalized() * (0.9 * tol);
      checkAll(p, Vec2{}, "radial trial " + std::to_string(trial));
    }
  }
}

TEST(KernelOracleTest, CoordinateScalesAndOffOriginCenters) {
  Rng rng(5);
  for (double scale : {1e-3, 1e6}) {
    for (const Vec2 offset : {Vec2{}, Vec2{123.25, -45.5}, Vec2{-7e3, 2e4}}) {
      const Vec2 off = offset * scale;
      const std::string tag = " scale " + std::to_string(scale) + " offset (" +
                              std::to_string(off.x) + "," +
                              std::to_string(off.y) + ")";
      const Tol scaled{geom::kDefaultTol.dist * scale, geom::kDefaultTol.ang};
      const std::vector<Configuration> inputs = {
          config::randomConfiguration(24, rng, 1.0, 1e-3),
          config::regularPolygon(12, 1.0, {}, 0.1),
          twoConcentric(8, 1.0, 0.5, geom::kPi / 8.0),
          config::axialConfiguration(6, 2, rng),
      };
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        const Configuration p = mapped(inputs[k], scale, off);
        const std::string what = "input " + std::to_string(k) + tag;
        checkSec(p, what);
        checkAxes(p, p.sec().center, geom::kDefaultTol, what + " default tol");
        checkAxes(p, p.sec().center, scaled, what + " scaled tol");
        checkAxes(p, off, scaled, what + " scaled tol @offset");
      }
    }
  }
}

/// tol.dist = 0 demands exact coincidence, and a point at the center has
/// radius 0: the filter's bounds must stay well defined at both extremes.
TEST(KernelOracleTest, ZeroToleranceAndPointAtCenter) {
  const Tol exact{0.0, 1e-9};
  const Configuration plus(
      {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}});
  const auto want = oracle::symmetryAxes(plus, Vec2{}, exact);
  ASSERT_FALSE(want.empty());
  expectSameAxes(config::symmetryAxes(plus, Vec2{}, exact), want,
                 "plus shape, tol.dist 0");
  checkAxes(plus, Vec2{}, geom::kDefaultTol, "plus shape");
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> pts = config::axialConfiguration(3, 2, rng).points();
    pts.insert(pts.begin(), Vec2{0.0, 0.0});
    const Configuration p(pts);
    checkAxes(p, Vec2{}, exact, "axial + center, tol.dist 0");
    checkAxes(p, Vec2{}, geom::kDefaultTol, "axial + center");
  }
}

/// A point at direction exactly -0.0 makes both +0.0 and -0.0 candidate
/// axes. They compare equal, so only sorting the full candidate list fixes
/// which one is reported; the kernel must report the oracle's.
TEST(KernelOracleTest, SignedZeroCandidateAxes) {
  for (std::size_t m : {4u, 6u, 8u, 12u, 16u, 24u}) {
    std::vector<Vec2> pts = config::regularPolygon(m, 1.0).points();
    pts[0] = Vec2{1.0, -0.0};  // direction atan2(-0.0, 1) = -0.0
    pts[m / 2] = Vec2{-1.0, 0.0};
    for (std::size_t rot = 0; rot < m; ++rot) {
      std::rotate(pts.begin(), pts.begin() + 1, pts.end());
      const Configuration p(pts);
      const auto want = oracle::symmetryAxes(p, Vec2{});
      ASSERT_FALSE(want.empty());
      expectSameAxes(config::symmetryAxes(p, Vec2{}), want,
                     "signed zero m=" + std::to_string(m) +
                         " rotation " + std::to_string(rot));
    }
  }
  // Mirror pairs about the x-axis plus axis points at y = -0.0 and +0.0,
  // shuffled: many candidates, so the full sort's order of the zeros
  // varies.
  Rng rng(99);
  std::uniform_real_distribution<double> ux(-1.0, 1.0), uy(0.1, 1.0);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Vec2> pts;
    for (int k = 0; k < 4 + trial % 17; ++k) {
      const double x = ux(rng), y = uy(rng);
      pts.push_back({x, y});
      pts.push_back({x, -y});
    }
    pts.push_back({0.5 + 0.5 * uy(rng), -0.0});
    pts.push_back({-0.5 - 0.5 * uy(rng), 0.0});
    std::shuffle(pts.begin(), pts.end(), rng);
    const Configuration p(pts);
    const auto want = oracle::symmetryAxes(p, Vec2{});
    ASSERT_FALSE(want.empty());
    expectSameAxes(config::symmetryAxes(p, Vec2{}), want,
                   "signed zero mirror trial " + std::to_string(trial));
  }
}

/// At coordinates near 1e6 a computed radius carries ~1e-10 of rounding,
/// a tenth of the default tol.dist. Here the reflection of pts[0] lies
/// within tol.dist of its partner and the oracle accepts the axis, but the
/// partner's computed radius differs from pts[0]'s by MORE than tol.dist:
/// a partner window padded by tol.dist alone would pre-reject a true axis.
/// The kernel's window carries a rounding margin, so it must still match
/// the oracle.
TEST(KernelOracleTest, LargeScaleWindowNeedsRoundingMargin) {
  const Tol tol = geom::kDefaultTol;
  const Vec2 center{3e6 + 0.25, -1e6 + 0.5};
  Rng rng(1234);
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.5e6, 1.5e6);
  std::uniform_real_distribution<double> udelta(0.8, 1.0);
  int witnesses = 0;
  for (int trial = 0; trial < 20000 && witnesses < 5; ++trial) {
    const double aA = uang(rng), aP = uang(rng);
    const Vec2 a = center + Vec2{std::cos(aA), std::sin(aA)} * urad(rng);
    const Vec2 pt = center + Vec2{std::cos(aP), std::sin(aP)} * urad(rng);
    // The axis through `a`, as symmetryAxes derives it from a's direction.
    const double axis = std::fmod(geom::norm2pi((a - center).arg()), geom::kPi);
    const Vec2 u{std::cos(axis), std::sin(axis)};
    const Vec2 r = oracle::reflectAcross(pt, center, u);
    // The partner: the reflection pushed radially out by just under tol.
    const Vec2 q = r + (r - center).normalized() * (tol.dist * udelta(rng));
    const Configuration p({pt, q, a});

    const double gap =
        std::fabs(geom::dist(q, center) - geom::dist(pt, center));
    if (!geom::nearlyEqual(r, q, tol) || gap <= tol.dist) continue;
    const auto want = oracle::symmetryAxes(p, center, tol);
    if (std::find_if(want.begin(), want.end(), [&](double w) {
          return bits(w) == bits(axis);
        }) == want.end()) {
      continue;
    }
    ++witnesses;
    expectSameAxes(config::symmetryAxes(p, center, tol), want,
                   "large-scale witness trial " + std::to_string(trial));
  }
  EXPECT_GE(witnesses, 5) << "no configuration exercised the rounding margin";
}

/// The polar-table kernels on the generator corpora, around the SEC
/// center, the origin and an off-origin center, at two coordinate scales.
TEST(KernelOracleTest, PolarKernelsOnGeneratorCorpora) {
  Rng rng(2022);
  std::vector<Configuration> corpus;
  for (std::size_t n = 3; n <= 64; n += (n < 16 ? 1 : 12)) {
    corpus.push_back(config::randomConfiguration(n, rng, 2.0, 1e-3));
  }
  for (std::size_t m : {3u, 4u, 7u, 12u}) {
    corpus.push_back(config::regularPolygon(m, 1.5, {0.3, -0.7}, 0.2));
    corpus.push_back(twoConcentric(m, 1.0, 0.55, geom::kPi / m));
  }
  for (int pairs = 1; pairs <= 6; ++pairs) {
    corpus.push_back(config::axialConfiguration(pairs, pairs % 3, rng));
  }
  corpus.push_back(config::symmetricConfiguration(4, 3, rng));
  // A multiplicity point and a point exactly at the origin.
  Configuration multi = config::regularPolygon(6, 1.0);
  multi.push_back(multi[0]);
  multi.push_back(multi[3]);
  multi.push_back(Vec2{});
  corpus.push_back(multi);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    for (double scale : {1.0, 1e3}) {
      const Configuration p = mapped(corpus[k], scale, Vec2{});
      const std::string what =
          "corpus " + std::to_string(k) + " scale " + std::to_string(scale);
      checkPolarKernels(p, p.sec().center, what + " @sec");
      checkPolarKernels(p, Vec2{}, what + " @origin");
      checkPolarKernels(p, Vec2{0.1, -0.2} * scale, what + " @off-origin");
    }
  }
}

/// Signed zeros: -0.0 coordinates and centers. A +0.0 and a -0.0 center
/// compare equal but can give different args, so each gets its own table.
TEST(KernelOracleTest, PolarKernelsSignedZeroCoordinates) {
  const std::vector<Vec2> centers = {{0.0, 0.0}, {-0.0, 0.0}, {0.0, -0.0},
                                     {-0.0, -0.0}};
  for (std::size_t m : {4u, 6u, 8u}) {
    std::vector<Vec2> pts = config::regularPolygon(m, 1.0).points();
    pts[0] = Vec2{1.0, -0.0};
    pts[m / 2] = Vec2{-1.0, -0.0};
    pts.push_back(Vec2{-0.5, 0.0});
    pts.push_back(Vec2{-0.0, 0.25});
    const Configuration p(pts);
    for (const Vec2& c : centers) {
      checkPolarKernels(p, c, "signed zero m=" + std::to_string(m) + " c=(" +
                                  std::to_string(std::signbit(c.x)) + "," +
                                  std::to_string(std::signbit(c.y)) + ")");
    }
  }
}

/// Analysis::maxViewP on random and symmetric snapshots.
TEST(KernelOracleTest, MaxViewPMatchesOracle) {
  Rng rng(64);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 7 + static_cast<std::size_t>(trial % 10);
    sim::Snapshot snap;
    snap.robots = (trial % 3 == 0)
                      ? twoConcentric(n / 2, 1.0, 0.6, geom::kPi / (n / 2))
                      : config::randomConfiguration(n, rng, 3.0, 0.05);
    snap.pattern = config::randomPattern(snap.robots.size(), rng);
    snap.selfIndex = static_cast<std::size_t>(trial) % snap.robots.size();
    snap.multiplicityDetection = trial % 2 == 1;
    checkMaxViewP(snap, "trial " + std::to_string(trial));
  }
}

/// Snapshots of a live n = 16 `form` run from two concentric 8-gons, as
/// the robots see them (own frames) and normalized as Analysis does.
class SnapshotTap final : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    if (calls_++ % 5 == 0 && snaps.size() < 160) snaps.push_back(snap);
    return inner_.compute(snap, rng);
  }
  std::string name() const override { return "tap(" + inner_.name() + ")"; }

  mutable std::vector<sim::Snapshot> snaps;

 private:
  core::FormPatternAlgorithm inner_;
  mutable std::size_t calls_ = 0;
};

TEST(KernelOracleTest, LiveSymmetricFormRunSnapshots) {
  Rng rng(16);
  const Configuration start = twoConcentric(8, 1.0, 0.6, geom::kPi / 8.0);
  const Configuration pattern = config::randomPattern(16, rng);
  SnapshotTap tap;
  sim::EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.seed = 16;
  opts.maxEvents = 4000;
  sim::Engine engine(start, pattern, tap, opts);
  (void)engine.run();
  ASSERT_GE(tap.snaps.size(), 100u);
  for (std::size_t k = 0; k < tap.snaps.size(); ++k) {
    const Configuration& raw = tap.snaps[k].robots;
    const Configuration norm = raw.transformed(raw.normalizingTransform());
    const std::string what = "snapshot " + std::to_string(k);
    checkAll(raw, raw[tap.snaps[k].selfIndex], what + " (robot frame)");
    checkAll(norm, Vec2{}, what + " (normalized)");
    checkPolarKernels(raw, raw.sec().center, what + " (robot frame)");
    checkPolarKernels(norm, Vec2{}, what + " (normalized)");
    checkPolarKernels(norm, norm.sec().center, what + " (normalized @sec)");
    checkMaxViewP(tap.snaps[k], what);
  }
}

/// Snapshots of live `form` runs from random starts at n = 16 and 64 and
/// from two concentric 16-gons, checked like the run above. The n = 64
/// random run spends its first Computes on psi_RSB's reject path.
TEST(KernelOracleTest, LiveRandomAndTwoGonRunSnapshots) {
  struct Case {
    const char* name;
    Configuration start;
    std::uint64_t events;
  };
  Rng rng(6416);
  const std::vector<Case> cases = {
      {"random n=16", config::randomConfiguration(16, rng, 3.0, 0.05), 3000},
      {"random n=64", config::randomConfiguration(64, rng, 3.0, 0.05), 600},
      {"two 16-gons", twoConcentric(16, 1.0, 0.6, geom::kPi / 16.0), 600},
  };
  for (const Case& c : cases) {
    const std::size_t n = c.start.size();
    const Configuration pattern = config::randomPattern(n, rng);
    SnapshotTap tap;
    sim::EngineOptions opts;
    opts.sched.kind = sched::SchedulerKind::Async;
    opts.seed = n;
    opts.maxEvents = c.events;
    sim::Engine engine(c.start, pattern, tap, opts);
    (void)engine.run();
    ASSERT_GE(tap.snaps.size(), 20u) << c.name;
    for (std::size_t k = 0; k < tap.snaps.size(); k += (n > 16 ? 8 : 2)) {
      const Configuration& raw = tap.snaps[k].robots;
      const Configuration norm = raw.transformed(raw.normalizingTransform());
      const std::string what =
          std::string(c.name) + " snapshot " + std::to_string(k);
      checkAll(norm, Vec2{}, what + " (normalized)");
      checkPolarKernels(norm, norm.sec().center, what + " (normalized @sec)");
      checkPolarKernels(raw, raw.weberPoint(), what + " (robot frame @weber)");
      checkMaxViewP(tap.snaps[k], what);
    }
  }
}

/// norm2pi skips fmod when |a| < 2pi; every result must be fmod's bits,
/// signed zeros and the boundaries included.
TEST(KernelOracleTest, Norm2piMatchesFmod) {
  const double pi = geom::kPi, twoPi = geom::kTwoPi;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> angles = {0.0,  -0.0,   pi,         -pi,
                                twoPi, -twoPi, 3.0 * pi,   -3.0 * pi,
                                1e-300, -1e-300, 4.9e-324, -4.9e-324,
                                1e300, -1e300};
  for (double a : {pi, twoPi, 3.0 * pi}) {
    for (double s : {1.0, -1.0}) {
      double x = s * a;
      for (int k = 0; k < 4; ++k) {
        x = std::nextafter(x, inf);
        angles.push_back(x);
      }
      x = s * a;
      for (int k = 0; k < 4; ++k) {
        x = std::nextafter(x, -inf);
        angles.push_back(x);
      }
    }
  }
  Rng rng(2);
  std::uniform_real_distribution<double> u(-20.0, 20.0);
  for (int k = 0; k < 20000; ++k) angles.push_back(u(rng));
  for (double a : angles) {
    EXPECT_EQ(bits(geom::norm2pi(a)), bits(oracle::norm2pi(a))) << a;
  }
  EXPECT_TRUE(std::isnan(geom::norm2pi(std::nan(""))));
  EXPECT_TRUE(std::isnan(geom::norm2pi(inf)));
}

/// The axis prefilter with one, two and many radius-window partners of
/// pts[0]: a lone point, a mirror pair at one radius, and every point on
/// one circle, each with and without an exact axis.
TEST(KernelOracleTest, AxisPrefilterPartnerSets) {
  Rng rng(123);
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.2, 1.0);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(trial % 12);
    std::vector<std::vector<Vec2>> inputs;
    // One partner: pts[0] alone on its circle.
    inputs.push_back(config::randomConfiguration(n, rng, 2.0, 1e-3).points());
    // Two partners: pts[0] and its mirror image across a random axis,
    // among mirror pairs at other radii, plus an unpaired copy.
    {
      const double axis = uang(rng);
      std::vector<Vec2> pts;
      for (std::size_t k = 0; k < n / 2; ++k) {
        const double a = uang(rng), r = (k == 0) ? 1.0 : urad(rng);
        pts.push_back(Vec2{std::cos(a), std::sin(a)} * r);
        pts.push_back(Vec2{std::cos(2.0 * axis - a), std::sin(2.0 * axis - a)} *
                      r);
      }
      inputs.push_back(pts);
      pts.push_back(Vec2{0.3, 0.1});
      inputs.push_back(pts);
    }
    // Many partners: a regular polygon, and random points on one circle.
    inputs.push_back(config::regularPolygon(n, 1.0, {}, uang(rng)).points());
    {
      std::vector<Vec2> pts;
      for (std::size_t k = 0; k < n; ++k) {
        const double a = uang(rng);
        pts.push_back(Vec2{std::cos(a), std::sin(a)});
      }
      inputs.push_back(pts);
    }
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const Configuration p(inputs[k]);
      const std::string what = "trial " + std::to_string(trial) + " input " +
                               std::to_string(k);
      checkAxes(p, Vec2{}, geom::kDefaultTol, what);
      checkAxes(p, p.sec().center, geom::kDefaultTol, what + " @sec");
    }
  }
}

/// A true axis whose reflected pts[0] misses its partner by up to 0.95
/// tol.dist along the circle: the axis then lies off the partner's mirror
/// axis by up to ~0.6 of the prefilter's window, so the window must be as
/// wide as its bound says (a window 10x too narrow drops the axis here).
/// The axis itself is a candidate through a point on it.
TEST(KernelOracleTest, AxisPrefilterTangentialPartner) {
  Rng rng(77);
  std::uniform_real_distribution<double> uang(0.2, 1.3);
  std::uniform_real_distribution<double> urad(0.3, 0.9);
  int kept = 0;
  for (double scale : {1e-3, 1.0, 1e3}) {
    const Tol tol{geom::kDefaultTol.dist * scale, geom::kDefaultTol.ang};
    for (double miss : {0.3, 0.6, 0.8, 0.95}) {
      for (int trial = 0; trial < 10; ++trial) {
        const double d = 1.0 + 0.5 * urad(rng);
        const double t0 = uang(rng);
        // The partner, turned off the exact mirror image by the angle whose
        // chord is miss * tol.dist.
        const double turn = 2.0 * std::asin(miss * tol.dist / scale / (2 * d));
        std::vector<Vec2> pts = {
            Vec2{std::cos(t0), std::sin(t0)} * d,
            Vec2{std::cos(-t0 + turn), std::sin(-t0 + turn)} * d,
            Vec2{0.7, 0.0},
        };
        for (int k = 0; k < 3; ++k) {
          const double a = uang(rng), r = urad(rng);
          pts.push_back(Vec2{std::cos(a), std::sin(a)} * r);
          pts.push_back(Vec2{std::cos(a), -std::sin(a)} * r);
        }
        const Configuration p = mapped(Configuration(pts), scale, Vec2{});
        const auto want = oracle::symmetryAxes(p, Vec2{}, tol);
        kept += std::any_of(want.begin(), want.end(),
                            [](double a) { return a == 0.0; });
        expectSameAxes(config::symmetryAxes(p, Vec2{}, tol), want,
                       "tangential miss " + std::to_string(miss) + " scale " +
                           std::to_string(scale) + " trial " +
                           std::to_string(trial));
      }
    }
  }
  EXPECT_GE(kept, 100) << "the oracle should keep the x-axis in most inputs";
}

/// Probe-style near-ring configurations: robot 1 lies 1e-7 to 4e-7 of the
/// innermost radius farther out than robot 0, the others at 0.45 to 1. A
/// fixed window of minR + 1e-9 leaves robot 1 out even where it holds the
/// greater view; maxViewP must still equal its definition. Variants add a
/// copy of robot 0 within tol.dist (the view then groups the two) and a
/// robot at the center.
TEST(KernelOracleTest, MaxViewPNearInnermostRing) {
  Rng rng(12);
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.45, 0.95);
  std::uniform_real_distribution<double> urel(1e-7, 4e-7);
  int outsideOldWindow = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const double r0 = 0.4;
    std::vector<Vec2> pts;
    const double a0 = uang(rng);
    pts.push_back(Vec2{std::cos(a0), std::sin(a0)} * r0);
    const double a1 = uang(rng);
    pts.push_back(Vec2{std::cos(a1), std::sin(a1)} * (r0 * (1.0 + urel(rng))));
    // Three robots at 120 degrees on the unit circle keep the SEC centered
    // on robot 0's center.
    const double b = uang(rng);
    for (int k = 0; k < 3; ++k) {
      const double a = b + k * geom::kTwoPi / 3.0;
      pts.push_back(Vec2{std::cos(a), std::sin(a)});
    }
    for (int k = 0; k < 7; ++k) {
      const double a = uang(rng);
      pts.push_back(Vec2{std::cos(a), std::sin(a)} * urad(rng));
    }
    const int variant = trial % 3;
    if (variant == 1) pts.push_back(pts[0] + Vec2{4e-10, 0.0});
    if (variant == 2) pts.push_back(Vec2{});
    sim::Snapshot snap;
    snap.robots = Configuration(pts);
    snap.pattern = config::randomPattern(pts.size(), rng);
    snap.selfIndex = static_cast<std::size_t>(trial) % pts.size();
    snap.multiplicityDetection = trial % 2 == 1;
    const std::string what = "near ring trial " + std::to_string(trial);
    checkMaxViewP(snap, what);

    core::Analysis a(snap);
    ASSERT_TRUE(a.ok()) << what;
    const auto maxP = a.maxViewP();
    const auto& radius = a.P().polar(a.centerP()).radius;
    const double minR = *std::min_element(radius.begin(), radius.end());
    outsideOldWindow += std::any_of(maxP.begin(), maxP.end(), [&](auto i) {
      return radius[i] > minR + 1e-9;
    });
  }
  EXPECT_GE(outsideOldWindow, 3)
      << "no max-view robot lay outside the old 1e-9 ring window";
}

/// Analysis takes the cached pattern when its points are bitwise the
/// freshly normalized ones; F() and fWithout(k) must then be exactly what
/// the uncached computation gives, circles included.
TEST(KernelOracleTest, CachedPatternMatchesFreshNormalization) {
  Rng rng(8);
  for (std::size_t n : {7u, 12u, 16u}) {
    sim::Snapshot snap;
    snap.robots = config::randomConfiguration(n, rng, 3.0, 0.05);
    snap.pattern = (n == 12) ? config::regularPolygon(n, 2.0, {1.0, 1.0}, 0.3)
                             : config::randomPattern(n, rng, 2.0);
    const core::Analysis a(snap);
    ASSERT_TRUE(a.ok());
    const Configuration fresh =
        snap.pattern.transformed(snap.pattern.normalizingTransform());
    ASSERT_EQ(a.F().size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(bits(a.F()[i].x), bits(fresh[i].x));
      EXPECT_EQ(bits(a.F()[i].y), bits(fresh[i].y));
    }
    expectSameCircle(a.F().sec(), oracle::smallestEnclosingCircle(fresh.span()),
                     "F sec n=" + std::to_string(n));
    const auto& fs = a.patternInfo().maxViewNonHolders;
    ASSERT_FALSE(fs.empty());
    for (std::size_t k = 0; k < fs.size(); ++k) {
      const Configuration got = a.fWithout(k);
      const Configuration want = fresh.without(fs[k]);
      ASSERT_EQ(got.points(), want.points()) << "n=" << n << " k=" << k;
      expectSameCircle(got.sec(), oracle::smallestEnclosingCircle(want.span()),
                       "F - f sec n=" + std::to_string(n));
    }
  }
}

/// Every run of this campaign shares one pattern, so only the first run a
/// thread handles builds its PatternInfo, and which run that is depends on
/// the job count. The build warms circles through counted sec() calls; they
/// must stay out of the per-run geometry-cache counters, which are then the
/// same for any job count.
TEST(KernelOracleTest, SharedPatternCampaignCountersIndependentOfJobs) {
  core::FormPatternAlgorithm algo;
  const Configuration pattern = io::starPattern(8);
  std::vector<int> seeds(8);
  for (int s = 0; s < 8; ++s) seeds[s] = s;
  auto worker = [&](int s, std::size_t) {
    Rng rng(900 + s);
    const Configuration start = config::randomConfiguration(8, rng, 4.0, 0.1);
    sim::EngineOptions opts;
    opts.seed = 31 * static_cast<std::uint64_t>(s) + 5;
    opts.sched.kind = sched::SchedulerKind::Async;
    opts.maxEvents = 3000;
    sim::Engine eng(start, pattern, algo, opts);
    const sim::RunResult res = eng.run();
    return std::tuple(res.metrics.events, res.metrics.cycles,
                      res.metrics.secCacheHits, res.metrics.secCacheMisses,
                      res.metrics.weberCacheHits, res.metrics.weberCacheMisses);
  };
  const auto serial = sim::campaignMap(seeds, worker, 1);
  const auto four = sim::campaignMap(seeds, worker, 4);
  EXPECT_EQ(serial, four);
}

// --- shiftedRegularSetOf and its certificate pass. ---

/// Generator corpora: random configurations, regular polygons, two
/// concentric polygons (aligned and rotated; two 32-gons end the search at
/// its attempt cap), axial and symmetric sets, at two coordinate scales.
/// Both the certificate and the fallback must run.
TEST(KernelOracleTest, ShiftedSetOnGeneratorCorpora) {
  Rng rng(1508);
  std::vector<Configuration> corpus;
  for (std::size_t n = 4; n <= 64; n += (n < 16 ? 1 : 12)) {
    for (int rep = 0; rep < 2; ++rep) {
      corpus.push_back(config::randomConfiguration(n, rng, 2.0, 1e-3));
    }
  }
  for (std::size_t m : {4u, 5u, 7u, 8u, 12u, 32u}) {
    corpus.push_back(config::regularPolygon(m, 1.5, {0.3, -0.7}, 0.2));
    corpus.push_back(twoConcentric(m, 1.0, 0.55, geom::kPi / m));
    corpus.push_back(twoConcentric(m, 1.0, 0.55, 0.0));
  }
  for (int pairs = 2; pairs <= 8; pairs += 2) {
    corpus.push_back(config::axialConfiguration(pairs, pairs % 3, rng));
  }
  corpus.push_back(config::symmetricConfiguration(4, 3, rng));
  corpus.push_back(config::symmetricConfiguration(8, 2, rng));
  int certified = 0;
  int searched = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    for (double scale : {1.0, 1e3}) {
      const Configuration p = mapped(corpus[k], scale, Vec2{0.1, -0.2} * scale);
      const std::string what =
          "corpus " + std::to_string(k) + " scale " + std::to_string(scale);
      (checkShifted(p, what) ? certified : searched) += 1;
    }
  }
  EXPECT_GT(certified, 0);
  EXPECT_GT(searched, 0);
}

/// Snapshots of live `form` runs, as the robots see them and normalized as
/// Analysis does: random starts at n = 16 and 64 (the reject path), and two
/// 8-gons and two 16-gons, aligned and rotated (the election, whose shifts
/// the search must find).
TEST(KernelOracleTest, ShiftedSetOnLiveSnapshots) {
  struct Case {
    const char* name;
    Configuration start;
    std::uint64_t events;
  };
  Rng rng(6417);
  const std::vector<Case> cases = {
      {"random n=16", config::randomConfiguration(16, rng, 3.0, 0.05), 2000},
      {"random n=64", config::randomConfiguration(64, rng, 3.0, 0.05), 600},
      {"two 8-gons", twoConcentric(8, 1.0, 0.6, geom::kPi / 8.0), 3000},
      {"two aligned 8-gons", twoConcentric(8, 1.0, 0.6, 0.0), 3000},
      {"two 16-gons", twoConcentric(16, 1.0, 0.6, geom::kPi / 16.0), 1500},
      {"two aligned 16-gons", twoConcentric(16, 1.0, 0.6, 0.0), 1500},
  };
  int found = 0;
  int certified = 0;
  for (const Case& c : cases) {
    const std::size_t n = c.start.size();
    const Configuration pattern = config::randomPattern(n, rng);
    SnapshotTap tap;
    sim::EngineOptions opts;
    opts.sched.kind = sched::SchedulerKind::Async;
    opts.seed = n + 1;
    opts.maxEvents = c.events;
    sim::Engine engine(c.start, pattern, tap, opts);
    (void)engine.run();
    ASSERT_GE(tap.snaps.size(), 20u) << c.name;
    for (std::size_t k = 0; k < tap.snaps.size(); k += (n > 16 ? 4 : 1)) {
      const Configuration& raw = tap.snaps[k].robots;
      const Configuration norm = raw.transformed(raw.normalizingTransform());
      const std::string what =
          std::string(c.name) + " snapshot " + std::to_string(k);
      certified += checkShifted(raw, what + " (robot frame)");
      certified += checkShifted(norm, what + " (normalized)");
      found += oracle::shiftedRegularSetOf(norm).has_value();
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(certified, 0);
}

/// Constructed shifted sets at eps = 1/8 and 1/4: whole equiangular and
/// bi-angled configurations, and a triangle inside a hexagon (the subset
/// case). The search must find each, so the certificate must not hold.
TEST(KernelOracleTest, ShiftedSetOnConstructedShifts) {
  for (double eps : {0.125, 0.25}) {
    for (std::size_t m = 7; m <= 16; ++m) {
      std::vector<double> radii(m, 2.0);
      radii[2] = 1.0;
      Configuration p = config::equiangularSet(radii, {3, -2}, 0.8);
      p[2] = Vec2{3, -2} + (p[2] - Vec2{3, -2}).rotated(eps * geom::kTwoPi / m);
      const std::string what =
          "equiangular m=" + std::to_string(m) + " eps=" + std::to_string(eps);
      ASSERT_TRUE(oracle::shiftedRegularSetOf(p).has_value()) << what;
      EXPECT_FALSE(checkShifted(p, what)) << what;
    }
    for (std::size_t m : {8u, 12u}) {
      std::vector<double> radii(m, 2.0);
      radii[4] = 1.2;
      const double alpha = 0.8 * geom::kTwoPi / m;
      Configuration p = config::biangularSet(m, alpha, radii, {1, 1}, 0.9);
      p[4] = Vec2{1, 1} + (p[4] - Vec2{1, 1}).rotated(eps * alpha);
      const std::string what =
          "biangular m=" + std::to_string(m) + " eps=" + std::to_string(eps);
      ASSERT_TRUE(oracle::shiftedRegularSetOf(p).has_value()) << what;
      EXPECT_FALSE(checkShifted(p, what)) << what;
    }
    Configuration p = config::regularPolygon(6, 3.0, {}, 0.0);
    Configuration inner = config::regularPolygon(3, 1.0, {}, 0.21);
    const double shift = eps * 0.21;
    inner[0] = Vec2{0.8 * std::cos(0.21 - shift), 0.8 * std::sin(0.21 - shift)};
    for (const Vec2& v : inner.points()) p.push_back(v);
    const std::string what = "subset eps=" + std::to_string(eps);
    ASSERT_TRUE(oracle::shiftedRegularSetOf(p).has_value()) << what;
    EXPECT_FALSE(checkShifted(p, what)) << what;
  }
}

/// The certificate's subset-case bound for robot ir, from its definition in
/// src/config/shifted.cpp: B_r = 0.3 * (g_r + tol.ang) + 1e-9 + 1e-11, with
/// g_r = alphamin of P - {r} around the SEC center.
double certificateBound(const Configuration& p, std::size_t ir) {
  const Tol tol = geom::kDefaultTol;
  const double gR = config::alphaMin(p.without(ir), p.sec().center, tol);
  return 0.3 * (gR + tol.ang) + 1e-9 + 1e-11;
}

/// The offset proposeVacancies computes for robot q, family order jf.
double reducedOffset(const Configuration& p, std::size_t ir, std::size_t q,
                     int jf) {
  const config::PolarTable& t = p.polar(p.sec().center);
  const double step = geom::kTwoPi / jf;
  const double k = std::round((t.arg[q] - t.arg[ir]) / step);
  return geom::normPi(geom::norm2pi(t.arg[q] - k * step) - t.arg[ir]);
}

/// A robot whose order-2 offset lies at the bound B_r to within a few ulps
/// of its direction: on or inside the bound the certificate must give up,
/// one ulp outside it must hold (every other offset is far from the bound).
TEST(KernelOracleTest, ShiftedCertificateAtItsBound) {
  // Robot 0 is the innermost r; the outer ring holds one close pair (gap
  // 0.02 = g_r); robot 10 is q, roughly opposite r.
  const double outer[] = {0.7, 0.72, 1.3, 1.9, 2.6, 4.1, 4.7, 5.3, 5.9};
  const auto build = [&](double qDir) {
    std::vector<Vec2> pts = {Vec2{std::cos(0.2), std::sin(0.2)} * 0.1};
    for (double a : outer) pts.push_back(Vec2{std::cos(a), std::sin(a)});
    pts.push_back(Vec2{std::cos(qDir), std::sin(qDir)} * 0.6);
    return Configuration(std::move(pts));
  };
  const auto excess = [&](double qDir) {
    const Configuration p = build(qDir);
    return std::fabs(reducedOffset(p, 0, 10, 2)) - certificateBound(p, 0);
  };
  const double b0 = certificateBound(build(0.2 + geom::kPi + 0.006), 0);
  double lo = 0.2 + geom::kPi + b0 - 1e-6;
  double hi = 0.2 + geom::kPi + b0 + 1e-6;
  ASSERT_LE(excess(lo), 0.0);
  ASSERT_GT(excess(hi), 0.0);
  while (std::nextafter(lo, hi) != hi) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid == lo || mid == hi) break;
    (excess(mid) <= 0.0 ? lo : hi) = mid;
  }
  EXPECT_GT(excess(lo), -1e-14);
  EXPECT_LT(excess(hi), 1e-14);
  EXPECT_FALSE(checkShifted(build(lo), "q on the bound"));
  EXPECT_TRUE(checkShifted(build(hi), "q just outside the bound"));
}

/// Directions of P - {r} chained at gaps near tol.ang: rayDirections merges
/// some of them, so the alphamin bound does not hold and the certificate
/// must give up, even where no offset comes near the bound (chain at 3.4).
TEST(KernelOracleTest, ShiftedCertificateDenseDirectionChain) {
  const double outer[] = {0.7, 1.0, 1.3, 1.6, 1.9, 2.25, 2.6, 4.1,
                          4.4, 4.7, 5.0, 5.3, 5.6, 5.9};
  const double chainGaps[] = {1.5e-9, 0.9e-9, 2.1e-9};
  for (double chainAt : {3.4, 0.2 + geom::kPi}) {
    std::vector<Vec2> pts = {Vec2{std::cos(0.2), std::sin(0.2)} * 0.02};
    for (double a : outer) pts.push_back(Vec2{std::cos(a), std::sin(a)});
    double a = chainAt;
    double radius = 0.7;
    pts.push_back(Vec2{std::cos(a), std::sin(a)} * radius);
    for (double gap : chainGaps) {
      a += gap;
      radius += 0.1;
      pts.push_back(Vec2{std::cos(a), std::sin(a)} * radius);
    }
    const std::string what = "chain at " + std::to_string(chainAt);
    EXPECT_FALSE(checkShifted(Configuration(std::move(pts)), what)) << what;
  }
}

/// r within a few 1e-9 of the SEC center. Off the origin, rounding in
/// r' - c is no longer small against |r - c|, so the certificate must give
/// up; at the origin it holds (g_r is the 0.02 gap of the close pair).
TEST(KernelOracleTest, ShiftedCertificateRobotNearCenter) {
  const double outer[] = {0.7, 0.72, 1.3, 1.9, 2.6, 3.5, 4.1, 4.7, 5.3, 5.9};
  for (Vec2 center : {Vec2{}, Vec2{3, -2}}) {
    for (double rad : {1.5e-9, 3e-9, 1e-8}) {
      std::vector<Vec2> pts;
      for (double a : outer) {
        pts.push_back(center + Vec2{std::cos(a), std::sin(a)});
      }
      const Vec2 c = Configuration(pts).sec().center;
      pts.push_back(c + Vec2{std::cos(0.3), std::sin(0.3)} * rad);
      const Configuration p(std::move(pts));
      const std::string what = "center (" + std::to_string(center.x) +
                               ") rad " + std::to_string(rad);
      EXPECT_EQ(checkShifted(p, what), center.x == 0.0) << what;
    }
  }
}

// --- Head-first view order against full views. ---

/// headFirstViews against allViews around c, with and without
/// multiplicity: the same byViewDescending order (hence the same tie
/// classes) and the same compareViews on every pair. A full key it builds
/// is allViews' view; a short one is allViews' first triple, and it is
/// short exactly when no other robot's key starts with that triple.
/// viewsBuilt counts the full keys only.
void checkHeadFirst(const Configuration& p, Vec2 c, const std::string& what) {
  for (bool mult : {false, true}) {
    const std::string tag = what + (mult ? " (multiplicity)" : "");
    const auto full = config::allViews(p, c, mult);
    const std::uint64_t before = config::geomCacheCounters().viewsBuilt;
    const auto head = config::headFirstViews(p, c, mult);
    const std::uint64_t built = config::geomCacheCounters().viewsBuilt - before;
    ASSERT_EQ(head.size(), full.size()) << tag;
    EXPECT_EQ(config::byViewDescending(head), config::byViewDescending(full))
        << tag;
    std::uint64_t tied = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (std::size_t j = 0; j < p.size(); ++j) {
        EXPECT_EQ(config::compareViews(head[i], head[j]),
                  config::compareViews(full[i], full[j]))
            << tag << " i=" << i << " j=" << j;
      }
      EXPECT_EQ(head[i].atCenter, full[i].atCenter) << tag << " i=" << i;
      if (full[i].atCenter) continue;
      ASSERT_GE(full[i].key.size(), 3u) << tag;
      const std::vector<std::int64_t> first(full[i].key.begin(),
                                            full[i].key.begin() + 3);
      bool shared = false;
      for (std::size_t j = 0; j < p.size(); ++j) {
        shared |= j != i && !full[j].atCenter &&
                  std::equal(first.begin(), first.end(), full[j].key.begin());
      }
      if (shared) {
        ++tied;
        EXPECT_EQ(head[i], full[i]) << tag << " i=" << i;
      } else {
        EXPECT_EQ(head[i].key, first) << tag << " i=" << i;
      }
    }
    EXPECT_EQ(built, tied) << tag;
  }
}

/// checkHeadFirst around the SEC center and around `other`.
void checkHeadFirstBoth(const Configuration& p, Vec2 other,
                        const std::string& what) {
  checkHeadFirst(p, p.sec().center, what + " @sec");
  checkHeadFirst(p, other, what + " @other");
}

TEST(KernelOracleTest, HeadFirstViewsOnRandomSets) {
  Rng rng(4064);
  for (std::size_t n = 4; n <= 64; n += (n < 16 ? 1 : 6)) {
    for (int rep = 0; rep < 2; ++rep) {
      const Configuration p = config::randomConfiguration(n, rng, 2.0, 1e-3);
      checkHeadFirstBoth(p, Vec2{0.1, -0.2},
                         "random n=" + std::to_string(n) + " rep=" +
                             std::to_string(rep));
    }
  }
}

TEST(KernelOracleTest, HeadFirstViewsOnPolygonsAndAxialSets) {
  for (std::size_t m = 3; m <= 32; ++m) {
    const Configuration p = config::regularPolygon(m, 1.5, {0.3, -0.7}, 0.2);
    checkHeadFirstBoth(p, Vec2{0.3, -0.7}, "m-gon m=" + std::to_string(m));
  }
  for (std::size_t k = 3; k <= 16; ++k) {
    for (double phase : {0.0, geom::kPi / static_cast<double>(k), 0.3}) {
      const std::string what = "two " + std::to_string(k) + "-gons phase " +
                               std::to_string(phase);
      checkHeadFirstBoth(twoConcentric(k, 1.0, 0.55, phase), Vec2{0.05, 0.0},
                         what);
      // Both polygons on one circle: every head ties.
      checkHeadFirstBoth(twoConcentric(k, 1.0, 1.0, phase / 2.0 + 0.01),
                         Vec2{}, what + " co-circular");
    }
  }
  Rng rng(4065);
  for (int pairs = 1; pairs <= 10; ++pairs) {
    for (int onAxis = 0; onAxis <= 3; ++onAxis) {
      checkHeadFirstBoth(config::axialConfiguration(pairs, onAxis, rng),
                         Vec2{0.02, 0.01},
                         "axial pairs=" + std::to_string(pairs) +
                             " onAxis=" + std::to_string(onAxis));
    }
  }
  for (int rho : {2, 3, 4, 6}) {
    checkHeadFirstBoth(config::symmetricConfiguration(rho, 3, rng), Vec2{},
                       "symmetric rho=" + std::to_string(rho));
  }
}

/// Radii within one view quantum of each other, so that the first rho run
/// holds several groups; multiplicity points; robots at the center.
TEST(KernelOracleTest, HeadFirstViewsNearTiesMultiplicityAndCenter) {
  Rng rng(4066);
  std::uniform_real_distribution<double> uang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> urad(0.45, 0.95);
  std::uniform_real_distribution<double> urel(1e-8, 4e-7);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Vec2> pts;
    const double r0 = 0.4;
    for (int k = 0; k < 3; ++k) {
      const double a = uang(rng);
      pts.push_back(Vec2{std::cos(a), std::sin(a)} * (r0 * (1.0 + k * urel(rng))));
    }
    for (int k = 0; k < 3; ++k) {
      const double a = k * geom::kTwoPi / 3.0 + 0.1;
      pts.push_back(Vec2{std::cos(a), std::sin(a)});
    }
    for (int k = 0; k < 6; ++k) {
      const double a = uang(rng);
      pts.push_back(Vec2{std::cos(a), std::sin(a)} * urad(rng));
    }
    const int variant = trial % 4;
    if (variant == 1) pts.push_back(pts[0]);                  // multiplicity
    if (variant == 2) pts.push_back(pts[4] + Vec2{4e-10, 0});  // within tol
    if (variant == 3) pts.push_back(Configuration(pts).sec().center);
    checkHeadFirstBoth(Configuration(pts), pts[5],
                       "near tie trial " + std::to_string(trial));
  }
  // A mirror-symmetric pair, one of them a quantum-sized step off.
  for (double step : {0.0, 2e-7, 6e-7, 2e-6}) {
    Configuration p = config::regularPolygon(6, 1.0, {}, 0.0);
    p.push_back(Vec2{0.5, 0.2});
    p.push_back(Vec2{0.5, -0.2 - step});
    checkHeadFirstBoth(p, Vec2{}, "mirror pair step " + std::to_string(step));
  }
  // Robots at the center: one, two coincident, and two within tol.
  for (int atCenter = 1; atCenter <= 3; ++atCenter) {
    Configuration p = twoConcentric(5, 1.0, 0.5, 0.2);
    p.push_back(Vec2{});
    if (atCenter >= 2) p.push_back(atCenter == 2 ? Vec2{} : Vec2{3e-10, 0});
    checkHeadFirstBoth(p, Vec2{0.3, 0.0},
                       "center robots " + std::to_string(atCenter));
  }
  // Multiplicity points on a polygon, counted or not.
  Configuration multi = config::regularPolygon(8, 1.0, {}, 0.0);
  multi.push_back(multi[0]);
  multi.push_back(multi[0]);
  multi.push_back(multi[3]);
  multi.push_back(Vec2{0.2, 0.1});
  checkHeadFirstBoth(multi, Vec2{}, "multiplicity octagon");
}

// --- Carried normalized snapshot against a fresh normalization. ---

/// snap.normalized() against snap.transformed(snap.normalizingTransform())
/// and that configuration's polar({0, 0}), bit for bit. The origin table
/// is served without a miss. Returns normalized()'s points.
std::vector<Vec2> expectNormalizedFresh(const Configuration& snap,
                                        const std::string& what) {
  const Configuration fresh = snap.transformed(snap.normalizingTransform());
  const config::PolarTable& want = fresh.polar(Vec2{});
  const Configuration& got = snap.normalized();
  const auto before = config::geomCacheCounters();
  const config::PolarTable& t = got.polar(Vec2{});
  EXPECT_EQ(config::geomCacheCounters().polarMisses, before.polarMisses)
      << what;
  EXPECT_EQ(got.size(), fresh.size()) << what;
  if (got.size() != fresh.size()) return got.points();
  for (std::size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(bits(got[j].x), bits(fresh[j].x)) << what << " j=" << j;
    EXPECT_EQ(bits(got[j].y), bits(fresh[j].y)) << what << " j=" << j;
    EXPECT_EQ(bits(t.radius[j]), bits(want.radius[j])) << what << " j=" << j;
    EXPECT_EQ(bits(t.arg[j]), bits(want.arg[j])) << what << " j=" << j;
    EXPECT_EQ(bits(t.dir[j]), bits(want.dir[j])) << what << " j=" << j;
  }
  return got.points();
}

/// Checks every snapshot the engine hands to `form` before forwarding it:
/// the snapshot object is the robot's own, refilled at every Look, so its
/// normalized() carries what the previous Compute of that robot left.
/// Every 9th snapshot is also checked through a copy, which starts empty.
class CarriedTap final : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    const std::string what = "look " + std::to_string(looks);
    const Configuration& robots = snap.robots;
    Last& last = last_[&robots];
    const Circle c = robots.sec();
    const bool sameCircle = last.seen && bits(c.radius) == bits(last.sec.radius) &&
                            bits(c.center.x) == bits(last.sec.center.x) &&
                            bits(c.center.y) == bits(last.sec.center.y);
    const bool sameSize = last.norm.size() == robots.size();
    const std::vector<Vec2> norm = expectNormalizedFresh(robots, what);
    if (last.seen) {
      sizeChanges += !sameSize;
      circleChanges += sameSize && !sameCircle;
      if (sameSize && sameCircle) {
        ++sameCircleLooks;
        for (std::size_t j = 0; j < norm.size(); ++j) {
          const bool kept = bits(norm[j].x) == bits(last.norm[j].x) &&
                            bits(norm[j].y) == bits(last.norm[j].y);
          keptEntries += kept;
          movedEntries += !kept;
        }
      }
    }
    last = {true, c, norm};
    if (looks++ % 9 == 0) {
      const Configuration copy = robots;
      expectNormalizedFresh(copy, what + " (copy)");
    }
    return inner_.compute(snap, rng);
  }
  std::string name() const override { return "carried(" + inner_.name() + ")"; }

  mutable std::uint64_t looks = 0;
  mutable std::uint64_t sizeChanges = 0;
  mutable std::uint64_t circleChanges = 0;
  mutable std::uint64_t sameCircleLooks = 0;
  mutable std::uint64_t keptEntries = 0;
  mutable std::uint64_t movedEntries = 0;

 private:
  struct Last {
    bool seen = false;
    Circle sec;
    std::vector<Vec2> norm;
  };
  core::FormPatternAlgorithm inner_;
  mutable std::map<const Configuration*, Last> last_;
};

TEST(KernelOracleTest, CarriedSnapshotOnEngineLookSequences) {
  struct Case {
    const char* name;
    Configuration start;
    std::uint64_t events;
    bool faults;
  };
  Rng rng(3064);
  const std::vector<Case> cases = {
      {"random n=16", config::randomConfiguration(16, rng, 3.0, 0.05), 3000,
       false},
      {"random n=64", config::randomConfiguration(64, rng, 3.0, 0.05), 1200,
       false},
      {"two 8-gons", twoConcentric(8, 1.0, 0.6, geom::kPi / 8.0), 3000, false},
      {"two 8-gons aligned", twoConcentric(8, 1.0, 0.6, 0.0), 3000, false},
      {"random n=16, look faults",
       config::randomConfiguration(16, rng, 3.0, 0.05), 2000, true},
  };
  for (const Case& c : cases) {
    const std::size_t n = c.start.size();
    CarriedTap tap;
    sim::EngineOptions opts;
    opts.sched.kind = sched::SchedulerKind::Async;
    opts.seed = n + 7;
    opts.maxEvents = c.events;
    if (c.faults) {
      // Noise perturbs every other robot's point, omission and
      // multiplicity flips change the snapshot's size.
      opts.fault.noiseSigma = 1e-4;
      opts.fault.omitProb = 0.05;
      opts.fault.multFlipProb = 0.05;
      opts.fault.seed = 5;
    }
    sim::Engine engine(c.start, config::randomPattern(n, rng), tap, opts);
    (void)engine.run();
    SCOPED_TRACE(c.name);
    EXPECT_GE(tap.looks, 100u);
    EXPECT_GT(tap.circleChanges, 0u);
    if (c.faults) {
      EXPECT_GT(tap.sizeChanges, 0u);
    } else {
      // Looks that kept their circle reused most entries.
      EXPECT_GT(tap.sameCircleLooks, 0u);
      EXPECT_GT(tap.keptEntries, tap.movedEntries);
    }
  }
}

/// normalized() across every mutation: the cache checks its own entries,
/// a copy starts without it and a move hands it over.
TEST(KernelOracleTest, CarriedSnapshotAcrossMutations) {
  Rng rng(3065);
  Configuration p = config::randomConfiguration(12, rng, 2.0, 0.05);
  expectNormalizedFresh(p, "first");
  expectNormalizedFresh(p, "unchanged");
  p[3] = p[3] * 0.5;  // inside: the circle keeps its bits
  expectNormalizedFresh(p, "interior point moved");
  p[0] = p[0] * 4.0;  // outside: a new circle
  expectNormalizedFresh(p, "circle changed");
  p.push_back(Vec2{0.1, 0.2});
  expectNormalizedFresh(p, "grown");
  std::vector<Vec2> pts = p.releasePoints();
  pts.pop_back();
  pts.pop_back();
  p.assign(std::move(pts));
  expectNormalizedFresh(p, "shrunk");
  p[1] = Vec2{-0.0, p[1].y};
  expectNormalizedFresh(p, "signed zero");
  const Configuration copy = p;
  expectNormalizedFresh(copy, "copy");
  Configuration assigned = config::randomConfiguration(5, rng, 1.0, 0.05);
  expectNormalizedFresh(assigned, "before copy assignment");
  assigned = p;
  expectNormalizedFresh(assigned, "copy-assigned");
  Configuration moved = std::move(p);
  expectNormalizedFresh(moved, "moved");
  moved[2] = moved[2] + Vec2{1e-9, 0.0};
  expectNormalizedFresh(moved, "moved, then mutated");
}

}  // namespace
}  // namespace apf

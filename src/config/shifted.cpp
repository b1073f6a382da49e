#include "config/shifted.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "config/rays.h"
#include "config/symmetry.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::config {
namespace {

using geom::kTwoPi;

/// proposeVacancies' tight alignment: a proposal is aligned with its
/// cluster when it lies within this angle of the cluster's median.
constexpr double kTightWindow = 1e-9;

/// A candidate vacant-ray direction, with the equiangular-family order that
/// proposed it and how many robots aligned to it at tight tolerance.
struct VacancyCandidate {
  double thetaV = 0.0;
  /// Best tight alignment over the proposing family orders.
  int tightCount = 0;
  /// True when some family order jf had at least jf - 1 members aligned at
  /// tight tolerance — the signature of a genuine grid with one vacancy.
  bool plausible = false;
};

/// verifyShift's checks that need only P, run before P' is built: r' = r
/// (eps = 0), r' in P, and the alphamin pre-rejection around cApprox. True
/// when they reject the candidate r' for shifted robot ir.
bool rejectedBeforeBuild(const Configuration& p, std::size_t ir, Vec2 rPrime,
                         Vec2 cApprox, const Tol& tol) {
  const Vec2 r = p[ir];
  if (geom::nearlyEqual(r, rPrime, tol)) return true;  // eps > 0
  for (const Vec2& q : p.points()) {
    if (geom::nearlyEqual(rPrime, q, tol)) return true;  // r' not in P
  }
  // Cheap pre-rejection around the approximate center: condition (a)
  // requires the shift angle to be at most a quarter of alphamin(P'); most
  // spurious candidates fail this by a wide margin, sparing the expensive
  // Definition-2 verification. 0.3 leaves slack for center error.
  //
  // alphaMinMoved gives alphamin(P') bit for bit without building P', so
  // P' is built only for the candidates that pass.
  const double aMinApprox = alphaMinMoved(p, ir, rPrime, cApprox, tol);
  const double shiftApprox = geom::angMin(r, cApprox, rPrime);
  return aMinApprox >= kTwoPi || shiftApprox > 0.3 * aMinApprox;
}

/// Exact verification of Definition 3 for a concrete (r, r') pair: builds
/// P' = P - {r} + {r'}, runs the full Definition-2 machinery, and checks
/// conditions (a)-(c). Never returns a false positive.
std::optional<ShiftedSetInfo> verifyShift(const Configuration& p,
                                          std::size_t ir, Vec2 rPrime,
                                          Vec2 cApprox, const Tol& tol) {
  ++geomCacheCounters().shiftVerifies;
  if (rejectedBeforeBuild(p, ir, rPrime, cApprox, tol)) return std::nullopt;
  const Vec2 r = p[ir];

  std::vector<Vec2> pts = p.points();
  pts[ir] = rPrime;
  const Configuration pPrime(std::move(pts));

  const auto reg = regularSetOf(pPrime, tol);
  if (!reg) return std::nullopt;
  if (std::find(reg->indices.begin(), reg->indices.end(), ir) ==
      reg->indices.end()) {
    return std::nullopt;  // r' must belong to reg(P')
  }
  const Vec2 c = reg->grid.center;

  // Condition (c): |r| = |r'| = min_{u in P} |u| (distances from c).
  const std::vector<double>& radius = p.polar(c).radius;
  const double rd = radius[ir];
  if (!geom::distEq(rd, geom::dist(rPrime, c), tol)) return std::nullopt;
  for (double d : radius) {
    if (d < rd - tol.dist) return std::nullopt;
  }

  // Condition (a): angmin(r, c, r') = eps * alphamin(P'), 0 < eps <= 1/4.
  const double aMinPPrime = alphaMin(pPrime, c, tol);
  if (aMinPPrime >= kTwoPi) return std::nullopt;
  const double shiftAngle = geom::angMin(r, c, rPrime);
  const double eps = shiftAngle / aMinPPrime;
  if (eps <= 0.0 || shiftAngle <= tol.ang || eps > 0.25 + 1e-9) {
    return std::nullopt;
  }

  // Condition (b): alphamin(r, P) < alphamin(r', P').
  if (!(alphaMinAt(r, p, c, tol) < alphaMinAt(rPrime, pPrime, c, tol))) {
    return std::nullopt;
  }

  ShiftedSetInfo info;
  info.grid = reg->grid;
  info.biangular = reg->biangular;
  info.indices = reg->indices;  // same index space: P'[i] == P[i] for i != ir
  info.shiftedRobot = ir;
  info.associatedPos = rPrime;
  info.epsilon = eps;
  info.alphaMinPPrime = aMinPPrime;
  info.wholeConfig = reg->wholeConfig;
  return info;
}

/// Propose vacant-ray directions around center c for shifted robot r:
/// for each equiangular family order jf, reduce every other robot's
/// direction modulo 2*pi/jf into the window of width alpha/2 around r's
/// direction. Exactly-aligned robots (bit-stable static grid members)
/// produce tightly clustered proposals.
std::vector<VacancyCandidate> proposeVacancies(const Configuration& p,
                                               std::size_t ir, Vec2 c,
                                               const Tol& tol) {
  const PolarTable& t = p.polar(c);
  if (t.radius[ir] <= tol.dist) return {};
  const double dirR = t.arg[ir];
  const int n = static_cast<int>(p.size());

  struct Raw {
    double thetaV;
    int familyOrder;
  };
  std::vector<Raw> raw;
  for (int jf = 2; jf <= n; ++jf) {
    const double step = kTwoPi / jf;
    for (std::size_t q = 0; q < p.size(); ++q) {
      if (q == ir || t.radius[q] <= tol.dist) continue;
      const double a = t.arg[q];
      const double delta = a - dirR;
      const double k = std::round(delta / step);
      const double thetaV = geom::norm2pi(a - k * step);
      const double off = geom::normPi(thetaV - dirR);
      if (std::fabs(off) <= tol.ang) continue;  // on r's own ray: eps = 0
      if (std::fabs(off) > step / 4.0 + 1e-7) continue;  // eps > 1/4
      raw.push_back({thetaV, jf});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Raw& a, const Raw& b) { return a.thetaV < b.thetaV; });

  // Cluster at loose tolerance, then count tight alignment per family order.
  std::vector<VacancyCandidate> out;
  std::size_t i = 0;
  while (i < raw.size()) {
    std::size_t j = i;
    while (j + 1 < raw.size() && raw[j + 1].thetaV - raw[i].thetaV < 1e-6) ++j;
    // Within cluster [i, j]: per family order, count members within
    // kTightWindow of the cluster's median value. A vacancy of a jf-ray
    // family must be proposed by its jf - 1 occupied rays, so the cluster is
    // plausible when ANY of its proposing orders reaches that quorum (a
    // single theta_v is often proposed under several orders, e.g. jf and
    // 2*jf).
    const double med = raw[(i + j) / 2].thetaV;
    VacancyCandidate cand{med, 0, false};
    for (std::size_t k = i; k <= j; ++k) {
      const int order = raw[k].familyOrder;
      int tight = 0;
      for (std::size_t l = i; l <= j; ++l) {
        if (raw[l].familyOrder == order &&
            std::fabs(raw[l].thetaV - med) < kTightWindow) {
          ++tight;
        }
      }
      cand.tightCount = std::max(cand.tightCount, tight);
      if (tight + 1 >= order) cand.plausible = true;
    }
    out.push_back(cand);
    i = j + 1;
  }
  // Strongest clusters first: genuine grids align many robots tightly.
  std::sort(out.begin(), out.end(),
            [](const VacancyCandidate& a, const VacancyCandidate& b) {
              return a.tightCount > b.tightCount;
            });
  return out;
}

/// True when no plausible cluster of proposeVacancies(p, ir, c, tol) can
/// pass verifyShift's pre-rejection around c, so the subset case cannot
/// report a shifted set for robot ir. False means "not proven", not
/// "found". One O(n^2) scan of the reduced offsets: no proposals are stored,
/// sorted or clustered.
///
/// Why it is exact. Let R be the directions around c of P - {r} (off-center
/// robots only), g_r = alphamin(R), and off_q(jf) the offset proposeVacancies
/// computes for robot q and family order jf (the same doubles: same delta,
/// same k, same expressions).
///   1. A plausible cluster with median theta has, for some order jf, at
///      least max(1, jf - 1) members of order jf within kTightWindow of
///      theta, each from a distinct robot q. So |off_q(jf)| <=
///      |off(theta)| + kTightWindow + 1e-15 for each of them.
///   2. The candidate r' = c + rad * e^{i theta} is rejected unless
///      angMin(r, c, r') <= 0.3 * alphaMinMoved(p, ir, r', c). With rad at
///      least 1e-3 * (|c| + rad), rounding moves the direction of r' - c
///      (and of r - c) by under 1e-12, so angMin(r, c, r') >=
///      |off(theta)| - 1e-12.
///   3. alphaMinMoved is alphamin(R + {d}), d = r''s direction (or of R
///      alone when r' is within tol.dist of c). When R's
///      circular gaps all exceed 2 * tol.ang, d lies within tol.ang of at
///      most one ray x of R, so rayDirections keeps R, R + {d}, or R with x
///      replaced by d: a gap is split or moves by at most tol.ang, and
///      alphamin(R + {d}) <= g_r + tol.ang (+ 1e-14 of rounding). With two
///      or more rays alphamin is the smallest gap; with fewer, g_r = 2 pi
///      and the bound is void.
/// Together: a surviving candidate has jf - 1 robots with |off_q(jf)| <=
/// B_r = 0.3 * (g_r + tol.ang) + kTightWindow + 1e-11. A count below that
/// quorum for every jf proves none survives. The pass gives up (false)
/// when a gap of R is within 2 * tol.ang + 1e-12 or rad is below
/// 1e-3 * (|c| + rad), where steps 2-3 do not hold.
bool subsetCaseRuledOut(const Configuration& p, std::size_t ir, Vec2 c,
                        const Tol& tol) {
  const PolarTable& t = p.polar(c);
  const double rad = t.radius[ir];
  if (rad <= tol.dist) return true;  // the subset case proposes nothing
  if (rad < 1e-3 * (c.norm() + rad)) return false;
  const std::size_t n = p.size();
  std::vector<double> rest;
  rest.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    if (q != ir && t.radius[q] > tol.dist) rest.push_back(t.dir[q]);
  }
  std::sort(rest.begin(), rest.end());
  double gR = kTwoPi;  // alphamin of fewer than two rays
  for (std::size_t k = 0; rest.size() >= 2 && k < rest.size(); ++k) {
    const double next =
        (k + 1 < rest.size()) ? rest[k + 1] : rest[0] + kTwoPi;
    const double gap = next - rest[k];
    if (gap <= 2.0 * tol.ang + 1e-12) return false;
    gR = std::min(gR, std::min(gap, kTwoPi - gap));
  }
  const double bound = 0.3 * (gR + tol.ang) + kTightWindow + 1e-11;
  const double dirR = t.arg[ir];
  for (std::size_t jf = 2; jf <= n; ++jf) {
    const double step = kTwoPi / static_cast<double>(jf);
    const std::size_t quorum = std::max<std::size_t>(1, jf - 1);
    std::size_t count = 0;
    for (std::size_t q = 0; q < n; ++q) {
      if (q == ir || t.radius[q] <= tol.dist) continue;
      const double a = t.arg[q];
      const double delta = a - dirR;
      const double k = std::round(delta / step);
      // delta - k * step is off_q to within 1e-14: skip the normalizations
      // for robots that are clearly out of reach.
      if (std::fabs(delta - k * step) > bound + 1e-12) continue;
      const double off = geom::normPi(geom::norm2pi(a - k * step) - dirR);
      if (std::fabs(off) <= tol.ang) continue;            // not proposed
      if (std::fabs(off) > step / 4.0 + 1e-7) continue;   // not proposed
      if (std::fabs(off) <= bound && ++count >= quorum) return false;
    }
  }
  return true;
}

/// Whole-configuration case: reg(P') = P'. Fit the n-1 static robots
/// (everything except r) to an n-ray grid with the vacancy at ray 0, via
/// Gauss-Newton with a free center. Returns candidate r' positions.
/// `weberWhole` is the precomputed Weber point of all of P (hoisted by the
/// caller — Weiszfeld iteration is far too dear to repeat per candidate
/// robot).
std::vector<Vec2> refineWholeGridCandidates(const Configuration& p,
                                            std::size_t ir, Vec2 weberWhole,
                                            const Tol& tol) {
  const int n = static_cast<int>(p.size());
  if (n < 5) return {};
  std::vector<Vec2> candidates;
  const Vec2 inits[2] = {weberWhole, geom::weberPoint(p.without(ir).span())};
  for (const Vec2& c0 : inits) {
    // Sorted directions of the static robots around the init center.
    struct Dir {
      double a;
      Vec2 pos;
    };
    const PolarTable& t = p.polar(c0);
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
    const std::size_t m = dirs.size();  // n - 1 points on an n-ray grid

    auto gapAfter = [&](std::size_t k) {
      const double next =
          (k + 1 < m) ? dirs[k + 1].a : dirs[0].a + kTwoPi;
      return next - dirs[k].a;
    };

    // Fits the static robots, from the one after gap v on, to rays 1..m of
    // an n-ray grid whose vacancy is ray 0, and proposes r' on ray 0.
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
      if (auto fit = fitGridWithin(pts, rayIndex, n, biangular, init, tol)) {
        const Vec2 c = fit->grid.center;
        const double ray0 = fit->grid.rayDir(0);
        candidates.push_back(c + Vec2{std::cos(ray0), std::sin(ray0)} *
                                     geom::dist(p[ir], c));
      }
    };

    const double base = kTwoPi / n;

    // Equiangular hypothesis: one gap ~ 2*base, the rest ~ base. The vacancy
    // sits inside the largest gap.
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

    // Bi-angled hypothesis (n even): the vacancy merges an alpha gap and a
    // beta gap into pairSum = 4*pi/n. Try every gap as the vacancy.
    if (n % 2 == 0 && n >= 6) {
      const double pairSum = 2.0 * kTwoPi / n;
      for (std::size_t v = 0; v < m; ++v) {
        if (std::fabs(gapAfter(v) - pairSum) > 0.45 * pairSum) continue;
        // With the vacancy at ray 0, the robot after it is ray 1 and the gap
        // ray1->ray2 is beta (our convention: gaps alternate alpha, beta
        // starting after ray 0).
        const double betaInit = gapAfter((v + 1) % m);
        const double alphaInit = pairSum - betaInit;
        if (alphaInit < 0.02 * pairSum || alphaInit > 0.98 * pairSum) continue;
        fitVacancyAfter(v, true, alphaInit, betaInit);
      }
    }
  }
  return candidates;
}

/// Bi-angled PAIR case (reg(P') is a mirror pair, |Q| = 2): the pair's
/// occupied family has a single ray, so modular reduction proposes nothing.
/// The vacant ray is instead pinned by Definition 2's virtual-axis
/// condition: it is the mirror image of the partner's ray across a symmetry
/// axis of the static remainder P - {r}. Returns candidate r' positions
/// around the SEC center c.
std::vector<Vec2> pairCaseCandidates(const Configuration& p, std::size_t ir,
                                     Vec2 c, const Tol& tol) {
  const PolarTable& around = p.polar(c);
  const double rad = around.radius[ir];
  if (rad <= tol.dist) return {};
  std::vector<Vec2> candidates;
  const Configuration restCfg = p.without(ir);
  const double dirR = around.arg[ir];
  for (double axis : symmetryAxes(restCfg, c, tol)) {
    const PolarTable& rt = restCfg.polar(c);
    for (std::size_t q = 0; q < restCfg.size(); ++q) {
      if (rt.radius[q] <= tol.dist) continue;
      const double thetaV = geom::norm2pi(2.0 * axis - rt.arg[q]);
      if (std::fabs(geom::normPi(thetaV - dirR)) > 0.6) continue;
      candidates.push_back(c + Vec2{std::cos(thetaV), std::sin(thetaV)} * rad);
    }
  }
  return candidates;
}

}  // namespace

std::optional<ShiftedSetInfo> shiftedRegularSetOf(const Configuration& p,
                                                  const Tol& tol) {
  ++geomCacheCounters().shiftedCalls;
  const std::size_t n = p.size();
  if (n < 4) return std::nullopt;

  // Candidate shifted robots: innermost ring around either plausible center.
  // Both centers are hoisted out of the per-robot loops below: p.sec() and
  // p.weberPoint() are memoized by Configuration, so repeated calls across
  // candidates cost one cache hit each.
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

  // The subset and pair cases below work around the SEC center.
  const Vec2 c = centers[0];
  constexpr std::size_t kMaxAttempts = 64;  // bound worst-case detection cost

  // Certificate pass: prove that every candidate the search below would
  // verify fails verifyShift's checks before P' is built; the verdict is
  // then nullopt. The search takes the candidate robots in order, each
  // robot's subset, whole and pair candidates in turn, and gives up after
  // kMaxAttempts of them. So the proof covers the subset case of every
  // robot first (cheap scans), then the whole and pair cases robot by
  // robot, and stops early once the search is known to give up among the
  // robots covered. Counting a robot's subset attempts takes
  // proposeVacancies, the cost the pass exists to skip, so it is paid only
  // for robots with whole or pair candidates: symmetric configurations,
  // where the next robot's symmetry axes cost far more. Any check that
  // fails hands over to the search, which reuses what was computed here.
  std::vector<std::optional<std::vector<VacancyCandidate>>> proposals(n);
  std::vector<std::optional<std::vector<Vec2>>> whole(n), pair(n);
  const auto proposalsOf =
      [&](std::size_t ir) -> const std::vector<VacancyCandidate>& {
    if (!proposals[ir]) proposals[ir] = proposeVacancies(p, ir, c, tol);
    return *proposals[ir];
  };
  const auto wholeOf = [&](std::size_t ir) -> const std::vector<Vec2>& {
    if (!whole[ir]) {
      whole[ir] = refineWholeGridCandidates(p, ir, weberWhole, tol);
    }
    return *whole[ir];
  };
  const auto pairOf = [&](std::size_t ir) -> const std::vector<Vec2>& {
    if (!pair[ir]) pair[ir] = pairCaseCandidates(p, ir, c, tol);
    return *pair[ir];
  };
  const auto allRejected = [&](std::size_t ir, const std::vector<Vec2>& cands,
                               Vec2 cApprox) {
    return std::all_of(cands.begin(), cands.end(), [&](Vec2 rPrime) {
      return rejectedBeforeBuild(p, ir, rPrime, cApprox, tol);
    });
  };
  bool ruledOut = true;
  for (std::size_t ir = 0; ir < n && ruledOut; ++ir) {
    ruledOut = !isCandidate[ir] || subsetCaseRuledOut(p, ir, c, tol);
  }
  // At most the search's attempt count at the end of the robots covered;
  // from kMaxAttempts on, every candidate it verifies is among them.
  std::size_t reached = 0;
  for (std::size_t ir = 0; ir < n && ruledOut && reached < kMaxAttempts;
       ++ir) {
    if (!isCandidate[ir]) continue;
    ruledOut = allRejected(ir, wholeOf(ir), weberWhole) &&
               allRejected(ir, pairOf(ir), c);
    if (!ruledOut) break;
    const std::size_t fitted = whole[ir]->size() + pair[ir]->size();
    if (fitted == 0) continue;
    const std::vector<VacancyCandidate>& cands = proposalsOf(ir);
    reached += fitted + static_cast<std::size_t>(std::count_if(
        cands.begin(), cands.end(),
        [](const VacancyCandidate& v) { return v.plausible; }));
  }
  if (ruledOut) {
    ++geomCacheCounters().shiftCertified;
    return std::nullopt;
  }

  const PolarTable& around = p.polar(c);
  std::size_t attempts = 0;
  for (std::size_t ir = 0; ir < n; ++ir) {
    if (!isCandidate[ir]) continue;
    const double rad = around.radius[ir];
    // Subset case: the center is exactly the SEC center; propose vacant rays
    // and verify each.
    if (rad > tol.dist) {
      for (const VacancyCandidate& cand : proposalsOf(ir)) {
        if (!cand.plausible) continue;
        if (++attempts > kMaxAttempts) return std::nullopt;
        const Vec2 rPrime =
            c + Vec2{std::cos(cand.thetaV), std::sin(cand.thetaV)} * rad;
        if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
      }
    }
    // Whole-configuration case: free-center grid fit on the static robots.
    for (const Vec2& rPrime : wholeOf(ir)) {
      if (++attempts > kMaxAttempts) return std::nullopt;
      if (auto info = verifyShift(p, ir, rPrime, weberWhole, tol)) {
        return info;
      }
    }
    // Bi-angled pair case: mirror images across axes of P - {r}.
    for (const Vec2& rPrime : pairOf(ir)) {
      if (++attempts > kMaxAttempts) return std::nullopt;
      if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
    }
  }
  return std::nullopt;
}

}  // namespace apf::config

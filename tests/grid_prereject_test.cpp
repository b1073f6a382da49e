/// The opposite-ray pre-rejection (geom::gridFitRuledOut) in front of every
/// angular-grid fit must never reject an assignment that fitAngularGrid
/// would accept: every regular-set and shifted-set decision then stays
/// bitwise the same. Two kinds of evidence:
///   - synthetic grids, equiangular and bi-angled, with one vacancy (the
///     shifted-set site) or full (the regular-set site), rotated, scaled,
///     moved off the origin and with points turned up to 0.99 tol.ang about
///     the true center. The true grid is a witness: at any tolerance at
///     least its own largest computed residual, the predicate must not rule
///     the assignment out, and neither may it rule out a fit
///     fitAngularGrid accepts at that fit's own residual;
///   - every fit problem that config::fitGridWithin sees in the three
///     work-gate runs and on the bench_detection corpora, fitted with and
///     without the pre-rejection and compared bitwise. The shifted-set
///     candidates and regular-set results are functions of these fits, so
///     equal fits mean equal candidate lists.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <random>
#include <span>
#include <tuple>
#include <vector>

#include "config/generator.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "core/form_pattern.h"
#include "core/rsb.h"
#include "geom/angle.h"
#include "geom/weber.h"
#include "io/patterns.h"
#include "sim/scenario.h"

namespace apf::config {

namespace {

struct Problem {
  std::vector<Vec2> pts;
  std::vector<int> rayIndex;
  int numRays = 0;
  bool biangular = false;
  geom::AngularGrid init;
  Tol tol;
};

/// Where the strong onGridFitProblem below records; null when not recording.
std::vector<Problem>* gRecording = nullptr;

}  // namespace

/// Overrides the library's weak no-op: records each fitGridWithin problem.
void onGridFitProblem(std::span<const Vec2> pts, std::span<const int> rayIndex,
                      int numRays, bool biangular,
                      const geom::AngularGrid& init, const Tol& tol) {
  if (gRecording == nullptr) return;
  gRecording->push_back({{pts.begin(), pts.end()},
                         {rayIndex.begin(), rayIndex.end()},
                         numRays,
                         biangular,
                         init,
                         tol});
}

namespace {

using geom::AngularGrid;
using geom::kTwoPi;

constexpr Tol kTol = geom::kDefaultTol;

/// A synthetic grid case: the points, their rays and the grid they were
/// built on.
struct Case {
  AngularGrid grid;
  bool biangular = false;
  std::vector<Vec2> pts;
  std::vector<int> rayIndex;
};

/// Points on the rays of an n-ray grid about `center` (ray 0 left vacant
/// when `vacancy`), at radii scale * [0.5, 2), each turned by a random
/// +-turn radians about the center.
Case makeCase(int n, bool biangular, bool vacancy, double scale, Vec2 center,
              double turn, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  Case c;
  c.biangular = biangular;
  c.grid.center = center;
  c.grid.numRays = n;
  c.grid.theta0 = kTwoPi * u01(rng);
  if (biangular) {
    c.grid.alpha = (0.15 + 0.3 * u01(rng)) * (2.0 * kTwoPi / n);
    c.grid.beta = 2.0 * kTwoPi / n - c.grid.alpha;
  } else {
    c.grid.alpha = c.grid.beta = kTwoPi / n;
  }
  for (int k = vacancy ? 1 : 0; k < n; ++k) {
    const double dir =
        c.grid.rayDir(k) + (u01(rng) < 0.5 ? -turn : turn);
    const double rad = scale * (0.5 + 1.5 * u01(rng));
    c.pts.push_back(center + Vec2{std::cos(dir), std::sin(dir)} * rad);
    c.rayIndex.push_back(k);
  }
  return c;
}

double maxResidual(const AngularGrid& g, const Case& c) {
  double m = 0.0;
  for (std::size_t i = 0; i < c.pts.size(); ++i) {
    m = std::max(m, std::fabs(geom::gridResidual(g, c.pts[i], c.rayIndex[i])));
  }
  return m;
}

bool ruledOut(const Case& c, double angTol) {
  return geom::gridFitRuledOut(c.pts, c.rayIndex, c.grid.numRays, c.biangular,
                               angTol);
}

/// Runs `check` on every synthetic case: n in {6, 8, 16, 64} equiangular
/// and {8, 16, 64} bi-angled, with and without a vacancy, at scales 1e-3
/// to 1e3, centers up to 1e3 from the origin, and points turned 0, 0.5 and
/// 0.99 tol.ang about the center.
template <typename Check>
void forEachCase(Check check) {
  std::mt19937_64 rng(20);
  const Vec2 centers[] = {{0.0, 0.0}, {0.37, -0.21}, {-1e3, 7.1e2}};
  for (const bool biangular : {false, true}) {
    for (const int n : {6, 8, 16, 64}) {
      if (biangular && n % 4 != 0) continue;
      for (const bool vacancy : {true, false}) {
        for (const double scale : {1e-3, 1e-1, 1.0, 1e1, 1e3}) {
          for (const Vec2 center : centers) {
            for (const double f : {0.0, 0.5, 0.99}) {
              for (int rep = 0; rep < 4; ++rep) {
                check(makeCase(n, biangular, vacancy, scale, center,
                               f * kTol.ang, rng));
              }
            }
          }
        }
      }
    }
  }
}

TEST(GridPrerejectTest, NeverRulesOutATrueGrid) {
  int withinTol = 0;
  forEachCase([&](const Case& c) {
    const double res = maxResidual(c.grid, c);
    // At its own largest residual the true grid is a witness, so the
    // assignment is fittable: this leaves no slack but the rounding margins.
    EXPECT_FALSE(ruledOut(c, res)) << "n " << c.grid.numRays << " res " << res;
    if (res <= kTol.ang) {
      ++withinTol;
      EXPECT_FALSE(ruledOut(c, kTol.ang)) << "n " << c.grid.numRays;
    }
  });
  // Far off the origin at the smallest scale, rounding of the coordinates
  // alone turns points by more than tol.ang; every other case is a grid.
  EXPECT_GE(withinTol, 2400);
}

TEST(GridPrerejectTest, NeverRulesOutAnAcceptedFit) {
  int accepted = 0;
  forEachCase([&](const Case& c) {
    AngularGrid init = c.grid;
    const double scale = geom::dist(c.pts[0], c.grid.center);
    init.center += Vec2{1e-4, -2e-4} * scale;
    init.theta0 += 1e-4;
    const auto fit = geom::fitAngularGrid(c.pts, c.rayIndex, c.grid.numRays,
                                          c.biangular, init);
    if (!fit) return;
    EXPECT_FALSE(ruledOut(c, fit->maxResidual))
        << "n " << c.grid.numRays << " res " << fit->maxResidual;
    if (fit->maxResidual <= kTol.ang) {
      ++accepted;
      EXPECT_FALSE(ruledOut(c, kTol.ang));
    }
  });
  // A least-squares fit of points turned 0.99 tol.ang may end just above
  // tol.ang; most cases are still accepted.
  EXPECT_GE(accepted, 1750);
}

/// The predicate has teeth: turning one point of an opposite pair by 1e-3
/// rad moves its pair line far from the center.
TEST(GridPrerejectTest, RulesOutAnOffRayPoint) {
  int cases = 0;
  forEachCase([&](Case c) {
    if (c.grid.numRays < 8) return;  // a vacancy leaves n = 6 two pairs
    Vec2& p = c.pts[0];              // on ray 0 or 1; it has a partner
    p = c.grid.center + (p - c.grid.center).rotated(1e-3);
    ++cases;
    EXPECT_TRUE(ruledOut(c, kTol.ang)) << "n " << c.grid.numRays;
  });
  EXPECT_GT(cases, 0);
}

TEST(GridPrerejectTest, NoVerdictWithoutThreeOppositePairs) {
  std::mt19937_64 rng(3);
  // Odd ray counts and bi-angled grids with n % 4 == 2 have no opposite
  // rays; n = 6 with a vacancy has two pairs. Every point is far off.
  for (const auto& [n, biangular, vacancy] :
       {std::tuple{7, false, false}, std::tuple{10, true, false},
        std::tuple{6, false, true}}) {
    Case c = makeCase(n, biangular, vacancy, 1.0, {}, 0.0, rng);
    for (Vec2& p : c.pts) p = p.rotated(0.1);
    c.pts[0] = c.pts[0] * 3.0 + Vec2{0.5, 0.0};
    EXPECT_FALSE(ruledOut(c, kTol.ang)) << "n " << n;
  }
  // Two points on one pair of opposite rays coincide: no line, no verdict.
  Case c = makeCase(16, false, false, 1.0, {}, 0.0, rng);
  c.pts[8] = c.pts[0];
  c.pts[1] = c.pts[1].rotated(0.2);
  EXPECT_FALSE(ruledOut(c, kTol.ang));
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool sameFit(const std::optional<geom::GridFit>& a,
             const std::optional<geom::GridFit>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  const AngularGrid& g = a->grid;
  const AngularGrid& h = b->grid;
  return sameBits(g.center.x, h.center.x) && sameBits(g.center.y, h.center.y) &&
         sameBits(g.theta0, h.theta0) && sameBits(g.alpha, h.alpha) &&
         sameBits(g.beta, h.beta) && g.numRays == h.numRays &&
         sameBits(a->maxResidual, b->maxResidual);
}

/// Records every fit problem `body` reaches, then fits each with the
/// pre-rejection (fitGridWithin) and without it (fitAngularGrid plus the
/// acceptance test) and expects the same bits. Returns how many problems
/// were pre-rejected and how many fits were accepted.
template <typename Body>
std::pair<int, int> expectSameFits(Body body) {
  std::vector<Problem> problems;
  gRecording = &problems;
  body();
  gRecording = nullptr;
  EXPECT_FALSE(problems.empty());
  int rejected = 0, accepted = 0;
  for (const Problem& pr : problems) {
    auto without = geom::fitAngularGrid(pr.pts, pr.rayIndex, pr.numRays,
                                        pr.biangular, pr.init);
    if (without && without->maxResidual > pr.tol.ang) without.reset();
    const auto with = fitGridWithin(pr.pts, pr.rayIndex, pr.numRays,
                                    pr.biangular, pr.init, pr.tol);
    EXPECT_TRUE(sameFit(with, without)) << "n " << pr.numRays;
    rejected += geom::gridFitRuledOut(pr.pts, pr.rayIndex, pr.numRays,
                                      pr.biangular, pr.tol.ang);
    accepted += without.has_value();
  }
  return {rejected, accepted};
}

void runToEnd(const sim::Scenario& sc, const sim::Algorithm& algo) {
  sim::Engine eng(sim::startFor(sc, sc.baseSeed), sc.pattern, algo,
                  sim::engineOptions(sc, sc.baseSeed));
  (void)eng.run();
}

// The three runs of tests/work_gate_test.cpp.
TEST(GridPrerejectTest, WorkGateRunsFitTheSame) {
  const auto [rej16, acc16] = expectSameFits([] {
    core::FormPatternAlgorithm form;
    sim::Scenario sc;
    sc.pattern = io::randomPatternByName(16, 1002);
    sc.baseSeed = 2;
    runToEnd(sc, form);
  });
  EXPECT_GT(rej16, 0);
  const auto [rejRsb, accRsb] = expectSameFits([] {
    core::RsbOnlyAlgorithm rsb;
    sim::Scenario sc;
    sc.algo = "rsb";
    sc.pattern = io::starPattern(16);
    sc.startKind = "symmetric";
    sc.baseSeed = 2;
    runToEnd(sc, rsb);
  });
  EXPECT_GT(rejRsb, 0);
  EXPECT_GT(accRsb, 0);  // the found path: real grids are fitted
  const auto [rej64, acc64] = expectSameFits([] {
    core::FormPatternAlgorithm form;
    sim::Scenario sc;
    sc.pattern = io::randomPatternByName(64, 1001);
    sc.baseSeed = 1;
    sc.maxEvents = 20000;
    runToEnd(sc, form);
  });
  EXPECT_GT(rej64, 0);
}

// The corpora of bench/bench_detection.cpp, with the same seeds.
TEST(GridPrerejectTest, DetectionCorporaFitTheSame) {
  constexpr int kCases = 100;
  const auto [rejected, accepted] = expectSameFits([] {
    for (int t = 0; t < kCases; ++t) {
      Rng rng(100 + t);
      std::uniform_int_distribution<int> um(7, 16);
      std::uniform_real_distribution<double> ur(0.5, 3.0);
      std::vector<double> radii(um(rng));
      for (double& r : radii) r = ur(rng);
      const Vec2 center{ur(rng) - 1.5, ur(rng) - 1.5};
      (void)checkRegularFreeCenter(equiangularSet(radii, center, ur(rng)));
    }
    for (int t = 0; t < kCases; ++t) {
      Rng rng(200 + t);
      std::uniform_int_distribution<int> um(4, 8);
      std::uniform_real_distribution<double> ur(0.5, 2.5);
      const int m = 2 * um(rng);
      const double pairSum = 2.0 * kTwoPi / m;
      std::uniform_real_distribution<double> ua(0.15 * pairSum,
                                                0.45 * pairSum);
      std::vector<double> radii(m);
      for (double& r : radii) r = ur(rng);
      const Vec2 center{ur(rng) - 1.0, ur(rng) - 1.0};
      (void)checkRegularFreeCenter(
          biangularSet(m, ua(rng), radii, center, ur(rng)));
    }
    for (int t = 0; t < kCases; ++t) {
      Rng rng(300 + t);
      std::uniform_int_distribution<int> um(7, 14);
      std::uniform_real_distribution<double> ue(0.02, 0.25);
      std::uniform_real_distribution<double> up(0.0, kTwoPi);
      const int m = um(rng);
      const double eps = ue(rng);
      std::vector<double> radii(m, 2.0);
      const std::size_t shiftedIdx = rng() % m;
      radii[shiftedIdx] = 1.0;
      Configuration p = equiangularSet(radii, {}, up(rng));
      p[shiftedIdx] = p[shiftedIdx].rotated(eps * kTwoPi / m);
      (void)shiftedRegularSetOf(p);
    }
    for (int t = 0; t < kCases; ++t) {
      Rng rng(400 + t);
      std::uniform_int_distribution<int> urho(2, 6);
      (void)regularSetOf(symmetricConfiguration(urho(rng), 3, rng));
    }
    for (int t = 0; t < kCases; ++t) {
      Rng rng(500 + t);
      const Configuration p = randomConfiguration(10, rng);
      (void)regularSetOf(p);
      (void)shiftedRegularSetOf(p);
    }
    for (int t = 0; t < kCases; ++t) {
      Rng rng(600 + t);
      const int m = std::uniform_int_distribution<int>(7, 12)(rng);
      std::vector<double> radii(m, 2.0);
      Configuration p = equiangularSet(radii, {}, 0.1 * t);
      p[0] = p[0].rotated(0.45 * kTwoPi / m);
      (void)checkRegularFreeCenter(p);
      (void)shiftedRegularSetOf(p);
    }
  });
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace apf::config

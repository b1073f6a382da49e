/// Crafted end-to-end scenarios exercising the rarer psi_DPF code paths:
/// fixEnclosingCircle (exactly two pattern points on C(F)), the m1-gon
/// dance (crowded enclosing circle), the null-angle pre-phase, the
/// rs-at-center bootstrap, and regressions for the SEC-collapse and
/// rank-merge bugs found during development.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "core/pattern_info.h"
#include "core/phases.h"
#include "geom/angle.h"
#include "io/patterns.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::Vec2;

sim::RunResult run(const Configuration& start, const Configuration& pattern,
                   sched::SchedulerKind kind, std::uint64_t seed,
                   std::map<int, std::uint64_t>* phases = nullptr,
                   std::uint64_t maxEvents = 600000) {
  FormPatternAlgorithm algo;
  sim::EngineOptions opts;
  opts.seed = seed;
  opts.maxEvents = maxEvents;
  opts.sched.kind = kind;
  sim::Engine eng(start, pattern, algo, opts);
  const auto res = eng.run();
  if (phases) *phases = res.metrics.phaseActivations;
  return res;
}

/// A pattern whose SEC is held by exactly two (diametral) points.
Configuration twoOnSecPattern(std::size_t n) {
  Configuration out;
  out.push_back({1, 0});
  out.push_back({-1, 0});
  // Interior points, well inside and asymmetric.
  config::Rng rng(77);
  const Configuration inner = config::randomConfiguration(n - 2, rng, 0.55,
                                                          0.05);
  for (const auto& p : inner.points()) out.push_back(p);
  return out;
}

TEST(DpfEdgeTest, FixEnclosingCirclePathForms) {
  const Configuration pattern = twoOnSecPattern(9);
  // Sanity: the SEC boundary of the pattern is exactly the diametral pair.
  int onBoundary = 0;
  const auto sec = pattern.sec();
  for (const auto& p : pattern.points()) {
    if (sec.onBoundary(p)) ++onBoundary;
  }
  ASSERT_EQ(onBoundary, 2);

  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    config::Rng rng(10 + seed);
    const Configuration start =
        config::randomConfiguration(9, rng, 4.0, 0.1);
    std::map<int, std::uint64_t> phases;
    const auto res =
        run(start, pattern, sched::SchedulerKind::Async, seed, &phases);
    EXPECT_TRUE(res.terminated) << seed;
    EXPECT_TRUE(res.success) << seed;
    EXPECT_GT(phases[kDpfFixCircle], 0u) << "fix-circle path not exercised";
  }
}

TEST(DpfEdgeTest, CrowdedEnclosingCircleDance) {
  // Start with every robot ON the enclosing circle (asymmetric angles):
  // removing the excess from C1 requires the m1-gon dance that keeps C(P)
  // alive while robots leave the boundary.
  Configuration start;
  const double angles[] = {0.1, 0.6, 1.3, 2.2, 2.9, 3.8, 4.6, 5.3, 5.9};
  for (double a : angles) {
    start.push_back(Vec2{std::cos(a), std::sin(a)} * 3.0);
  }
  const Configuration pattern = io::starPattern(9);  // m1 = 5 on C(F)...
  std::map<int, std::uint64_t> phases;
  const auto res =
      run(start, pattern, sched::SchedulerKind::Async, 5, &phases);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
  EXPECT_GT(phases[kDpfRemove], 0u) << "excess-removal not exercised";
}

TEST(DpfEdgeTest, RobotsOnSharedRaysGetCleared) {
  // Robots stacked on the same rays from the center (the null-angle /
  // shared-ray pre-phase situation arises as rmax's ray gets occupied).
  Configuration start;
  for (int k = 0; k < 4; ++k) {
    const double a = 0.3 + k * geom::kPi / 2.1;
    start.push_back(Vec2{std::cos(a), std::sin(a)} * 3.0);
    start.push_back(Vec2{std::cos(a), std::sin(a)} * 1.7);  // same ray
  }
  const auto res =
      run(start, io::spiralPattern(8), sched::SchedulerKind::Async, 7);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
}

TEST(DpfEdgeTest, SelectedRobotAtExactCenterBootstraps) {
  // rs exactly at c(P): phase 1 must walk it out to create rmax, then
  // everything proceeds.
  Configuration start = config::regularPolygon(7, 2.0, {}, 0.4);
  start.push_back({0.0, 0.0});
  const auto res =
      run(start, io::gridPattern(8), sched::SchedulerKind::Async, 9);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
}

TEST(DpfEdgeTest, TiedRmaxForcesSelectedReposition) {
  // Two robots tie for min radius symmetric about rs's ray: no unique
  // rmax; rs must reposition through the center and the run still forms.
  Configuration start = config::regularPolygon(6, 3.0, {}, 0.0);
  start.push_back({2.0, 0.9});
  start.push_back({2.0, -0.9});
  start.push_back({0.04, 0.0});  // selected, on the tie's axis
  const auto res =
      run(start, io::starPattern(9), sched::SchedulerKind::Async, 11);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
}

TEST(DpfEdgeTest, AllRobotsOnOneCircleRegressionSecCollapse) {
  // Regression for the SEC-collapse bug: a whole-configuration election
  // hands DPF a state where every robot sits on one circle and rmax holds
  // C(P); rmax's descent used to shrink the enclosing circle and the run
  // imploded toward the center. The boundary-spread guard fixes it.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    config::Rng rng(2022 + seed);
    const Configuration start = config::symmetricConfiguration(3, 2, rng);
    const Configuration pattern =
        io::randomPatternByName(start.size(), 4000 + seed);
    const auto res =
        run(start, pattern, sched::SchedulerKind::FSync, 174100 + seed * 7);
    EXPECT_TRUE(res.terminated) << seed;
    EXPECT_TRUE(res.success) << seed;
  }
}

TEST(DpfEdgeTest, SymmetricFsyncRegressionRankMerge) {
  // Regression for the stale-rank merge bug (two movers landing on the
  // same staging slot): symmetric starts under FSYNC, n = 12.
  for (std::uint64_t s : {3ull, 5ull, 8ull}) {
    config::Rng rng(900 + s);
    const Configuration start = config::symmetricConfiguration(4, 3, rng);
    const Configuration pattern =
        io::randomPatternByName(start.size(), 60 + s);
    FormPatternAlgorithm algo;
    sim::EngineOptions opts;
    opts.seed = 17 * s + 3;
    opts.maxEvents = 900000;
    opts.sched.kind = sched::SchedulerKind::FSync;
    sim::Engine eng(start, pattern, algo, opts);
    bool collision = false;
    eng.setObserver([&](const sim::Engine& e, std::size_t) {
      if (e.positions().hasMultiplicity(geom::Tol{1e-9, 1e-9})) {
        collision = true;
      }
    });
    const auto res = eng.run();
    EXPECT_TRUE(res.success) << s;
    EXPECT_FALSE(collision) << s;
  }
}

TEST(DpfEdgeTest, PatternWithManyRings) {
  // A pattern with n-1 distinct radii exercises the circle recursion at
  // its longest (every circle holds exactly one robot).
  const auto res =
      run([] {
        config::Rng rng(31);
        return config::randomConfiguration(10, rng, 4.0, 0.1);
      }(),
          io::spiralPattern(10), sched::SchedulerKind::Async, 13);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
}

TEST(DpfEdgeTest, PatternIsRegularPolygonMaxSymmetry) {
  // rho(F) = n, rho(I) = 1: the deterministic divisibility class forbids
  // this entirely; here it must just work.
  config::Rng rng(41);
  const Configuration start = config::randomConfiguration(9, rng, 4.0, 0.1);
  const auto res =
      run(start, io::polygonPattern(9), sched::SchedulerKind::Async, 15);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.success);
}

/// Ten pattern points: three hold C(F), and three target radii lie within
/// 1.6e-9 of each other. Grouped by each run's first radius they make two
/// circles, 0.5 (two targets) and 0.5 - 1.6e-9 (one), yet the middle
/// radius 0.5 - 0.8e-9 lies within kTol = 1e-9 of both.
Configuration nearCoincidentRadiiPattern(double middle = 0.5 - 0.8e-9) {
  const double polar[][2] = {  // (radius, degrees)
      {1.0, 0.0},    {1.0, 130.0},         {1.0, 225.0},
      {0.5, 17.0},   {middle, 53.0},       {0.5 - 1.6e-9, 200.0},
      {0.3, 290.0},  {0.7, 75.0},          {0.2, 160.0},
      {0.05, 320.0}};
  Configuration out;
  for (const auto& [r, deg] : polar) {
    const double t = deg * (geom::kPi / 180.0);
    out.push_back(Vec2{r * std::cos(t), r * std::sin(t)});
  }
  return out;
}

/// Each circle lists exactly its count of target angles, also when a
/// target radius lies within tolerance of two circles.
TEST(DpfEdgeTest, CircleTargetsMatchCircleCounts) {
  for (const Configuration& pattern :
       {nearCoincidentRadiiPattern(), nearCoincidentRadiiPattern(0.45),
        io::spiralPattern(10), io::polygonPattern(9), twoOnSecPattern(9)}) {
    const PatternInfo& info = PatternInfo::get(pattern, false);
    ASSERT_TRUE(info.valid);
    ASSERT_EQ(info.circleTargets.size(), info.circleCounts.size());
    std::size_t total = 0;
    for (std::size_t ci = 0; ci < info.circleCounts.size(); ++ci) {
      EXPECT_EQ(info.circleTargets[ci].size(),
                static_cast<std::size_t>(info.circleCounts[ci]))
          << "circle " << ci << " of radius " << info.circleRadii[ci];
      EXPECT_TRUE(std::is_sorted(info.circleTargets[ci].begin(),
                                 info.circleTargets[ci].end()));
      total += info.circleTargets[ci].size();
    }
    EXPECT_EQ(total, info.targets.size());
  }
  const PatternInfo& near =
      PatternInfo::get(nearCoincidentRadiiPattern(), false);
  const std::vector<int> counts = {3, 1, 2, 1, 1, 1};
  EXPECT_EQ(near.circleCounts, counts);
}

/// The runs apf_sim makes with --pattern-file of that pattern and --seed
/// 1..3 form it. When the circle 0.5 - 1.6e-9 listed two targets for its
/// count of one, the rotation phase stayed forever and each run stalled.
TEST(DpfEdgeTest, NearCoincidentTargetRadiiForm) {
  sim::Scenario sc;
  sc.pattern = nearCoincidentRadiiPattern();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    sc.baseSeed = seed;
    sim::EngineOptions opts = sim::engineOptions(sc, seed);
    opts.maxEvents = 300000;
    FormPatternAlgorithm algo;
    sim::Engine eng(sim::startFor(sc, seed), sc.pattern, algo, opts);
    const auto res = eng.run();
    EXPECT_TRUE(res.success) << "seed " << seed;
  }
}

}  // namespace
}  // namespace apf::core

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "config/generator.h"
#include "core/analysis.h"
#include "io/patterns.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::Vec2;

sim::Snapshot makeSnap(const Configuration& robots,
                       const Configuration& pattern, std::size_t self = 0,
                       bool mult = false) {
  sim::Snapshot s;
  s.robots = robots;
  s.pattern = pattern;
  s.selfIndex = self;
  s.multiplicityDetection = mult;
  return s;
}

TEST(AnalysisTest, NormalizationUnitSec) {
  config::Rng rng(1);
  const Configuration p = config::randomConfiguration(8, rng, 7.0, 0.1);
  const Configuration f = io::polygonPattern(8);
  Analysis a(makeSnap(p, f));
  ASSERT_TRUE(a.ok());
  const geom::Circle sec = a.P().sec();
  EXPECT_NEAR(sec.radius, 1.0, 1e-9);
  EXPECT_NEAR(sec.center.norm(), 0.0, 1e-9);
  EXPECT_NEAR(a.F().sec().radius, 1.0, 1e-9);
}

TEST(AnalysisTest, DenormalizeRoundTrips) {
  config::Rng rng(2);
  const Configuration p = config::randomConfiguration(6, rng, 3.0, 0.1);
  Analysis a(makeSnap(p, io::polygonPattern(6)));
  ASSERT_TRUE(a.ok());
  for (std::size_t i = 0; i < p.size(); ++i) {
    const Vec2 back = a.denormalize().apply(a.P()[i]);
    EXPECT_NEAR(back.x, p[i].x, 1e-9);
    EXPECT_NEAR(back.y, p[i].y, 1e-9);
  }
}

TEST(AnalysisTest, DegenerateSnapshotsRejected) {
  // All robots at one point (zero SEC) or trivial sizes are not analyzable.
  Analysis a(makeSnap(Configuration({{1, 1}, {1, 1}}), io::polygonPattern(4)));
  EXPECT_FALSE(a.ok());
  Analysis b(makeSnap(Configuration({{1, 1}}), io::polygonPattern(4)));
  EXPECT_FALSE(b.ok());
}

TEST(AnalysisTest, SelectedRobotPredicate) {
  // Pattern: unit square => l_F = sqrt(2)... normalized: all radii equal,
  // so l_F = 1 (single distance ring). Use a pattern with distinct rings.
  const Configuration f = io::starPattern(8);  // rings at 1 and 0.45
  // Robots: 7 on the unit circle + one robot well inside.
  Configuration p = config::regularPolygon(7, 1.0);
  p.push_back({0.05, 0.02});
  Analysis a(makeSnap(p, f));
  ASSERT_TRUE(a.ok());
  const auto sel = a.selectedRobot();
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 7u);
}

TEST(AnalysisTest, NoSelectedRobotWhenTwoInside) {
  const Configuration f = io::starPattern(8);
  Configuration p = config::regularPolygon(6, 1.0);
  p.push_back({0.05, 0.02});
  p.push_back({-0.06, 0.01});  // second robot inside D(2|r|)
  Analysis a(makeSnap(p, f));
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a.selectedRobot().has_value());
}

TEST(AnalysisTest, SelectedRobotAtExactCenterCounts) {
  const Configuration f = io::starPattern(8);
  Configuration p = config::regularPolygon(7, 1.0);
  p.push_back({0.0, 0.0});
  Analysis a(makeSnap(p, f));
  ASSERT_TRUE(a.ok());
  const auto sel = a.selectedRobot();
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 7u);
}

TEST(AnalysisTest, SelectedRobotUnique) {
  // The predicate can never hold for two robots simultaneously: scan many
  // random configurations and check at most one qualifies (the accessor
  // returns the first; verify no second by construction check).
  config::Rng rng(17);
  const Configuration f = io::starPattern(10);
  for (int t = 0; t < 50; ++t) {
    const Configuration p = config::randomConfiguration(10, rng, 1.0, 1e-3);
    Analysis a(makeSnap(p, f));
    if (!a.ok()) continue;
    int count = 0;
    const double lf = a.lF();
    for (std::size_t i = 0; i < a.P().size(); ++i) {
      const double ri = a.P()[i].norm();
      if (ri >= lf / 2.0) continue;
      bool alone = true;
      for (std::size_t j = 0; j < a.P().size(); ++j) {
        if (j != i && a.P()[j].norm() < 2.0 * ri - 1e-12) alone = false;
      }
      if (alone) ++count;
    }
    EXPECT_LE(count, 1) << "trial " << t;
  }
}

TEST(AnalysisTest, MaxViewFastPathMatchesFullComputation) {
  config::Rng rng(23);
  for (int t = 0; t < 30; ++t) {
    const Configuration p = config::randomConfiguration(9, rng, 1.0, 1e-3);
    Analysis a(makeSnap(p, io::polygonPattern(9)));
    ASSERT_TRUE(a.ok());
    const auto fast = a.maxViewP();
    // Full computation: compare every robot's view.
    const auto views =
        config::allViews(a.P(), a.centerP(), a.multiplicity());
    std::vector<std::size_t> slow;
    for (std::size_t i = 0; i < p.size(); ++i) {
      bool isMax = true;
      for (std::size_t j = 0; j < p.size() && isMax; ++j) {
        if (config::compareViews(views[j], views[i]) > 0) isMax = false;
      }
      if (isMax) slow.push_back(i);
    }
    EXPECT_EQ(fast, slow) << "trial " << t;
  }
}

TEST(AnalysisTest, MaxViewFastPathOnSymmetricConfig) {
  // Symmetric config: the max-view class is a whole symmetry class.
  const Configuration p = config::regularPolygon(5, 1.0);
  Analysis a(makeSnap(p, io::polygonPattern(5)));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.maxViewP().size(), 5u);
}

TEST(AnalysisTest, PatternInfoConsistentAcrossRobots) {
  // Every robot must derive the identical pattern decomposition.
  const Configuration f = io::starPattern(8);
  config::Rng rng(29);
  const Configuration p = config::randomConfiguration(8, rng);
  const PatternInfo* first = nullptr;
  for (std::size_t i = 0; i < p.size(); ++i) {
    Analysis a(makeSnap(p, f, i));
    ASSERT_TRUE(a.ok());
    if (!first) {
      first = &a.patternInfo();
    } else {
      EXPECT_EQ(first, &a.patternInfo());  // same cached object
    }
  }
}

TEST(AnalysisTest, PatternInfoKeyedByExactPatternBits) {
  // Two patterns 1e-12 apart are two patterns: B's entry must describe B,
  // bit for bit, not A, whose entry is already in the thread's cache.
  const Configuration fa = io::starPattern(8);
  Configuration fb = fa;
  fb[1].x += 1e-12;
  config::Rng rng(31);
  const Configuration p = config::randomConfiguration(8, rng);
  Analysis a(makeSnap(p, fa));
  Analysis b(makeSnap(p, fb));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(&a.patternInfo(), &b.patternInfo());
  const Configuration fresh = fb.transformed(fb.normalizingTransform());
  const Configuration& got = b.patternInfo().f;
  ASSERT_EQ(got.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].x),
              std::bit_cast<std::uint64_t>(fresh[i].x)) << "i=" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].y),
              std::bit_cast<std::uint64_t>(fresh[i].y)) << "i=" << i;
  }
}

TEST(AnalysisTest, PatternInfoCircleDecomposition) {
  const Configuration f = io::starPattern(8);
  Analysis a(makeSnap(f, f));
  const PatternInfo& pi = a.patternInfo();
  ASSERT_TRUE(pi.valid);
  // F' = 7 points; the star has rings at radius 1 (4 pts) and 0.45 (4 pts);
  // fs is an inner-ring point, so F' has 4 outer + 3 inner.
  ASSERT_EQ(pi.circleRadii.size(), 2u);
  EXPECT_NEAR(pi.circleRadii[0], 1.0, 1e-9);
  EXPECT_NEAR(pi.circleRadii[1], 0.45, 1e-9);
  EXPECT_EQ(pi.circleCounts[0], 4);
  EXPECT_EQ(pi.circleCounts[1], 3);
  // fmax is on the innermost circle of F'.
  EXPECT_NEAR(pi.fmaxRadius, 0.45, 1e-9);
  // Sum of circle counts = n - 1.
  int total = 0;
  for (int c : pi.circleCounts) total += c;
  EXPECT_EQ(total, 7);
}

TEST(AnalysisTest, PatternInfoFsIsMaxViewNonHolder) {
  for (const auto& name : io::allPatternNames()) {
    const Configuration f = io::patternByName(name, 9);
    Analysis a(makeSnap(f, f));
    const PatternInfo& pi = a.patternInfo();
    ASSERT_TRUE(pi.valid) << name;
    EXPECT_FALSE(geom::holdsSec(pi.f.span(), pi.fs)) << name;
    // fs has max view among non-holders: it appears in the list.
    EXPECT_NE(std::find(pi.maxViewNonHolders.begin(),
                        pi.maxViewNonHolders.end(), pi.fs),
              pi.maxViewNonHolders.end())
        << name;
  }
}

TEST(AnalysisTest, LFIsSecondDistinctRing) {
  // star: rings 0.45 and 1.0 -> l_F = 1.0 (second closest distinct).
  Analysis a(makeSnap(io::starPattern(8), io::starPattern(8)));
  EXPECT_NEAR(a.lF(), 1.0, 1e-9);
  // polygon: single ring -> l_F equals the ring itself.
  Analysis b(makeSnap(io::polygonPattern(8), io::polygonPattern(8)));
  EXPECT_NEAR(b.lF(), 1.0, 1e-9);
}

TEST(AnalysisTest, CenterPRegularAware) {
  // Whole-config equiangular set with off-origin grid center: centerP must
  // report the grid center, not the SEC center. Radii are clustered so no
  // robot qualifies as selected (centerP short-circuits to the origin when
  // a selected robot exists, because the run is then in the DPF regime).
  const double radii[] = {2.0, 2.2, 1.8, 1.9, 2.4, 2.1, 2.3};
  const Configuration p = config::equiangularSet(radii, {0.3, -0.2}, 0.4);
  Analysis a(makeSnap(p, io::starPattern(7)));
  ASSERT_TRUE(a.ok());
  // In normalized coordinates the grid center maps through the same
  // normalization; verify by re-deriving from the regular set.
  ASSERT_TRUE(a.regularSet().has_value());
  EXPECT_TRUE(geom::nearlyEqual(a.centerP(), a.regularSet()->grid.center,
                                geom::Tol{1e-7, 1e-7}));
  EXPECT_GT(a.centerP().norm(), 1e-4);  // genuinely off the SEC center
}

}  // namespace
}  // namespace apf::core

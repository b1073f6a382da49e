#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "config/generator.h"
#include "config/symmetry.h"
#include "config/view.h"
#include "geom/angle.h"

namespace apf::config {
namespace {

using geom::kTwoPi;
using geom::Vec2;

TEST(SymmetryTest, RegularPolygonHasFullSymmetricity) {
  for (int m : {3, 4, 5, 7, 12}) {
    const Configuration p = regularPolygon(m, 2.0, {1, 1}, 0.4);
    EXPECT_EQ(symmetricity(p, {1, 1}), m);
    EXPECT_EQ(static_cast<int>(symmetryAxes(p, {1, 1}).size()), m);
  }
}

TEST(SymmetryTest, TwoConcentricPolygonsGcdSymmetricity) {
  // 6-gon + 4-gon around the same center: symmetricity gcd(6,4) = 2.
  Configuration p = regularPolygon(6, 2.0, {}, 0.0);
  const Configuration q = regularPolygon(4, 1.0, {}, 0.0);
  for (const Vec2& v : q.points()) p.push_back(v);
  EXPECT_EQ(symmetricity(p, {}), 2);
}

TEST(SymmetryTest, GenericConfigurationAsymmetric) {
  Rng rng(3);
  const Configuration p = randomConfiguration(9, rng);
  const Vec2 c = p.sec().center;
  EXPECT_EQ(symmetricity(p, c), 1);
  EXPECT_TRUE(symmetryAxes(p, c).empty());
}

TEST(SymmetryTest, AxialOnlyConfiguration) {
  // Mirror-symmetric but not rotationally symmetric: rho = 1, one axis.
  const Configuration p({{0, 2}, {1, 1}, {-1, 1}, {0.5, -1}, {-0.5, -1}});
  const Vec2 c{0, 0};
  EXPECT_EQ(symmetricity(p, c), 1);
  const auto axes = symmetryAxes(p, c);
  ASSERT_EQ(axes.size(), 1u);
  EXPECT_NEAR(axes[0], geom::kPi / 2, 1e-9);
}

TEST(SymmetryTest, RotationAndReflectionPredicates) {
  const Configuration sq = regularPolygon(4, 1.0);
  EXPECT_TRUE(rotationMapsToSelf(sq, {}, kTwoPi / 4));
  EXPECT_TRUE(rotationMapsToSelf(sq, {}, kTwoPi / 2));
  EXPECT_FALSE(rotationMapsToSelf(sq, {}, kTwoPi / 3));
  EXPECT_TRUE(reflectionMapsToSelf(sq, {}, 0.0));
  EXPECT_TRUE(reflectionMapsToSelf(sq, {}, geom::kPi / 4));
  EXPECT_FALSE(reflectionMapsToSelf(sq, {}, 0.1));
}

TEST(ViewTest, EquivalentRobotsShareViews) {
  const Configuration p = regularPolygon(5, 1.0, {}, 0.9);
  const auto views = allViews(p, Vec2{});
  for (std::size_t i = 1; i < p.size(); ++i) {
    EXPECT_EQ(compareViews(views[0], views[i]), 0);
  }
}

TEST(ViewTest, GenericViewsAreDistinctAndTotallyOrdered) {
  Rng rng(11);
  const Configuration p = randomConfiguration(10, rng);
  const Vec2 c = p.sec().center;
  const auto views = allViews(p, c);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      EXPECT_NE(compareViews(views[i], views[j]), 0)
          << "robots " << i << " and " << j << " tie";
    }
  }
}

TEST(ViewTest, ViewInvariantUnderSimilarity) {
  Rng rng(12);
  const Configuration p = randomConfiguration(8, rng);
  const Vec2 c = p.sec().center;
  const geom::Similarity t(1.234, 3.7, false, {10, -4});
  const Configuration q = p.transformed(t);
  const Vec2 c2 = q.sec().center;
  const auto vp = allViews(p, c);
  const auto vq = allViews(q, c2);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(compareViews(vp[i], vq[i]), 0) << "robot " << i;
  }
}

TEST(ViewTest, ViewKeyEqualUnderReflectionButOrientationFlips) {
  Rng rng(13);
  const Configuration p = randomConfiguration(8, rng);
  const Vec2 c = p.sec().center;
  const Configuration q = p.transformed(geom::Similarity::mirrorX());
  const Vec2 c2 = q.sec().center;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const View a = localView(p, i, c);
    const View b = localView(q, i, c2);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.orientation, -b.orientation);
  }
}

TEST(ViewTest, AxisRobotHasOrientationZero) {
  // Robot on the symmetry axis of an isosceles configuration.
  const Configuration p({{0, 2}, {1, 1}, {-1, 1}, {0, -1}});
  const Vec2 c{0, 0};  // not the SEC center, but a center on the axis
  const View apex = localView(p, 0, c);
  EXPECT_EQ(apex.orientation, 0);
  const View side = localView(p, 1, c);
  EXPECT_NE(side.orientation, 0);
}

TEST(ViewTest, MaxViewSelectsMirrorPairInAxialConfig) {
  const Configuration p({{0, 2}, {1, 1}, {-1, 1}, {0.5, -1}, {-0.5, -1}});
  const Vec2 c{0, 0};
  const auto maxSet = maxViewRobots(p, c);
  // In an axially symmetric config the max-view class is closed under the
  // mirror; it has either 1 robot (on the axis) or a mirror pair.
  for (std::size_t i : maxSet) {
    const Vec2 mirrored{-p[i].x, p[i].y};
    bool mirrorInSet = false;
    for (std::size_t j : maxSet) {
      if (geom::nearlyEqual(p[j], mirrored)) mirrorInSet = true;
    }
    EXPECT_TRUE(mirrorInSet) << "robot " << i;
  }
}

TEST(ViewTest, CenterRobotViewIsGreatest) {
  const Configuration p({{0, 0}, {1, 0}, {0, 1}, {-1, -1}});
  const View center = localView(p, 0, Vec2{});
  const View other = localView(p, 1, Vec2{});
  EXPECT_TRUE(center.atCenter);
  EXPECT_GT(compareViews(center, other), 0);
}

TEST(ViewTest, MultiplicityChangesViewOnlyWhenEnabled) {
  const Configuration single({{1, 0}, {0, 1}, {-1, 0}});
  const Configuration doubled({{1, 0}, {1, 0}, {0, 1}, {-1, 0}});
  const View a = localView(single, 1, Vec2{}, false);
  const View b = localView(doubled, 2, Vec2{}, false);
  EXPECT_EQ(compareViews(a, b), 0);
  const View bm = localView(doubled, 2, Vec2{}, true);
  EXPECT_NE(compareViews(a, bm), 0);
}

TEST(ViewOrderTest, ByViewDescendingIsConsistent) {
  Rng rng(14);
  const Configuration p = randomConfiguration(12, rng);
  const Vec2 c = p.sec().center;
  const auto order = byViewDescending(allViews(p, c));
  const auto views = allViews(p, c);
  ASSERT_EQ(order.size(), p.size());
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GE(compareViews(views[order[k - 1]], views[order[k]]), 0);
  }
  EXPECT_EQ(order.front(), maxViewRobots(p, c).front());
}

TEST(AxialGeneratorTest, ProducesMirrorSymmetryWithRhoOne) {
  Rng rng(77);
  for (int pairs : {3, 4, 5}) {
    const Configuration p = axialConfiguration(pairs, 1, rng);
    EXPECT_EQ(p.size(), static_cast<std::size_t>(2 * pairs + 1));
    // The generator's axis is the y-axis through the origin; the SEC
    // center lies on it, so the reflection still maps P to itself.
    const Vec2 c = p.sec().center;
    EXPECT_NEAR(c.x, 0.0, 1e-9);
    EXPECT_TRUE(reflectionMapsToSelf(p, c, geom::kPi / 2));
    EXPECT_EQ(symmetricity(p, c), 1);
    // Property 1: axial symmetry implies a regular set exists. (Covered in
    // regular_test for rotational symmetry; this is the mirror case.)
  }
}

TEST(SymmetricGeneratorTest, ProducesRequestedSymmetricity) {
  Rng rng(15);
  for (int rho : {2, 3, 4, 6}) {
    const Configuration p = symmetricConfiguration(rho, 3, rng);
    EXPECT_EQ(symmetricity(p, {}), rho) << "rho=" << rho;
  }
}

}  // namespace
}  // namespace apf::config

/// View-machinery edge cases: multiplicity weighting, shared rays, total
/// order transitivity, and quantization stability.

#include <gtest/gtest.h>

#include <cmath>

#include "config/generator.h"
#include "config/view.h"
#include "geom/angle.h"

namespace apf::config {
namespace {

using geom::Vec2;

TEST(ViewEdgeTest, TotalOrderTransitivityOnRandomSets) {
  // compareViews must be a strict weak order: verify transitivity over all
  // triples on several random configurations.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const Configuration p = randomConfiguration(9, rng);
    const auto views = allViews(p, p.sec().center);
    for (std::size_t a = 0; a < p.size(); ++a) {
      for (std::size_t b = 0; b < p.size(); ++b) {
        for (std::size_t c = 0; c < p.size(); ++c) {
          if (compareViews(views[a], views[b]) > 0 &&
              compareViews(views[b], views[c]) > 0) {
            EXPECT_GT(compareViews(views[a], views[c]), 0)
                << a << ' ' << b << ' ' << c;
          }
        }
      }
    }
  }
}

TEST(ViewEdgeTest, InnermostAlwaysMaximal) {
  // The radius-first coordinate order makes the innermost robot's view
  // maximal — the property Property 2's proof rests on.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 3);
    const Configuration p = randomConfiguration(8, rng);
    const Vec2 c = p.sec().center;
    std::size_t innermost = 0;
    for (std::size_t i = 1; i < p.size(); ++i) {
      if (geom::dist(p[i], c) < geom::dist(p[innermost], c)) innermost = i;
    }
    const auto views = allViews(p, c);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(compareViews(views[innermost], views[i]), 0)
          << "seed " << seed << " robot " << i;
    }
  }
}

TEST(ViewEdgeTest, SharedRaysDoNotConfuseViews) {
  // Robots stacked on one ray: distinct radii give distinct views and the
  // inner one is greater.
  const Configuration p({{1, 0}, {2, 0}, {0, 1.5}, {-1.2, -0.4}});
  const auto views = allViews(p, Vec2{});
  EXPECT_GT(compareViews(views[0], views[1]), 0);
  EXPECT_NE(compareViews(views[2], views[3]), 0);
}

TEST(ViewEdgeTest, MultiplicityCountsBreakTies) {
  // Two mirror-image wings, one carrying a doubled point: without
  // multiplicity the wing views tie, with it they differ.
  const Configuration p({{0, 2},
                         {1, 1},
                         {-1, 1},
                         {1, 1},  // doubled right wing point
                         {0.5, -1},
                         {-0.5, -1}});
  const Vec2 c{0, 0};
  const View right = localView(p, 4, c, false);
  const View left = localView(p, 5, c, false);
  EXPECT_EQ(compareViews(right, left), 0) << "blind to multiplicity";
  const View rightM = localView(p, 4, c, true);
  const View leftM = localView(p, 5, c, true);
  EXPECT_NE(compareViews(rightM, leftM), 0) << "multiplicity visible";
}

TEST(ViewEdgeTest, QuantizationIsStableAcrossRecomputation) {
  Rng rng(9);
  const Configuration p = randomConfiguration(10, rng);
  const Vec2 c = p.sec().center;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const View a = localView(p, i, c);
    const View b = localView(p, i, c);
    EXPECT_EQ(a, b);
  }
}

TEST(ViewEdgeTest, ViewLengthMatchesDistinctPoints) {
  const Configuration p({{1, 0}, {0, 1}, {1, 0}, {-1, 0}});
  const View v = localView(p, 1, Vec2{});
  // grouped: 3 distinct points, 3 triples of (rho, theta, count).
  EXPECT_EQ(v.key.size(), 9u);
}

TEST(ViewEdgeTest, OrientationConsistentWithinEquivalenceClass) {
  // In a rotationally symmetric config, all robots of a class report the
  // same orientation sign (their views are rotations of each other).
  const Configuration p = [&] {
    Rng rng(4);
    return symmetricConfiguration(4, 2, rng);
  }();
  const auto views = allViews(p, Vec2{});
  // Class = same key; orientations must match inside a class.
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      if (views[i].key == views[j].key) {
        EXPECT_EQ(views[i].orientation, views[j].orientation)
            << i << ' ' << j;
      }
    }
  }
}

TEST(ViewEdgeTest, ByViewDescendingAgreesWithPairwiseComparisons) {
  Rng rng(15);
  const Configuration p = randomConfiguration(11, rng);
  const Vec2 c = p.sec().center;
  const auto order = byViewDescending(allViews(p, c));
  const auto views = allViews(p, c);
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    EXPECT_GE(compareViews(views[order[k]], views[order[k + 1]]), 0) << k;
  }
}

}  // namespace
}  // namespace apf::config

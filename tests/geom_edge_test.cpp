/// Edge cases of the geometry kernel: angle wraparound, degenerate inputs
/// to the SEC and grid fits, multi-segment paths, transform algebra.

#include <gtest/gtest.h>

#include <cmath>

#include "geom/angle.h"
#include "geom/path.h"
#include "geom/sec.h"
#include "geom/transform.h"
#include "geom/weber.h"

namespace apf::geom {
namespace {

TEST(AngleEdgeTest, ExactBoundaries) {
  EXPECT_DOUBLE_EQ(norm2pi(0.0), 0.0);
  EXPECT_LT(norm2pi(kTwoPi), 1e-15);
  EXPECT_NEAR(norm2pi(-kTwoPi), 0.0, 1e-15);
  EXPECT_NEAR(norm2pi(3 * kTwoPi + 1.0), 1.0, 1e-12);
  EXPECT_NEAR(norm2pi(-7 * kTwoPi - 1.0), kTwoPi - 1.0, 1e-11);
  EXPECT_NEAR(normPi(kPi), kPi, 1e-15);          // pi maps to +pi
  EXPECT_NEAR(normPi(-kPi), kPi, 1e-15);         // (-pi, pi] convention
  EXPECT_NEAR(normPi(kPi + 0.1), -kPi + 0.1, 1e-12);
}

TEST(AngleEdgeTest, HugeInputsStayNormalized) {
  for (double a : {1e8, -1e8, 1e12, -1e12}) {
    const double r = norm2pi(a);
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, kTwoPi);
  }
}

TEST(AngleEdgeTest, CcwSweepAndDistConsistent) {
  for (double a = 0.0; a < kTwoPi; a += 0.7) {
    for (double b = 0.0; b < kTwoPi; b += 0.9) {
      const double s = norm2pi(b - a);
      EXPECT_GE(s, 0.0);
      EXPECT_LT(s, kTwoPi);
      EXPECT_NEAR(angDist(a, b), std::min(s, kTwoPi - s), 1e-12);
    }
  }
}

TEST(SecEdgeTest, DegenerateInputs) {
  EXPECT_EQ(smallestEnclosingCircle({}).radius, 0.0);
  const Vec2 one[] = {{3, 4}};
  EXPECT_EQ(smallestEnclosingCircle(one).center, (Vec2{3, 4}));
  // All points identical.
  const Vec2 same[] = {{1, 1}, {1, 1}, {1, 1}};
  const Circle c = smallestEnclosingCircle(same);
  EXPECT_LT(c.radius, 1e-12);
}

TEST(SecEdgeTest, CollinearPoints) {
  const Vec2 pts[] = {{0, 0}, {1, 0}, {2, 0}, {5, 0}, {3, 0}};
  const Circle c = smallestEnclosingCircle(pts);
  EXPECT_NEAR(c.center.x, 2.5, 1e-9);
  EXPECT_NEAR(c.radius, 2.5, 1e-9);
}

TEST(SecEdgeTest, DuplicatePointsHarmless) {
  const Vec2 pts[] = {{1, 0}, {1, 0}, {-1, 0}, {-1, 0}, {0, 0.2}};
  const Circle c = smallestEnclosingCircle(pts);
  EXPECT_NEAR(c.radius, 1.0, 1e-9);
}

TEST(SecEdgeTest, DeterministicAcrossCalls) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({std::cos(i * 1.7) * (i % 5 + 1),
                   std::sin(i * 2.3) * (i % 7 + 1)});
  }
  const Circle a = smallestEnclosingCircle(pts);
  const Circle b = smallestEnclosingCircle(pts);
  EXPECT_EQ(a.center, b.center);
  EXPECT_EQ(a.radius, b.radius);
}

TEST(GridFitEdgeTest, RejectsPointOnCenter) {
  std::vector<Vec2> pts = {{0, 0}, {1, 0}, {0, 1}};
  std::vector<int> rays = {0, 1, 2};
  AngularGrid init;
  init.center = {0, 0};
  init.numRays = 3;
  EXPECT_FALSE(fitAngularGrid(pts, rays, 3, false, init).has_value());
}

TEST(GridFitEdgeTest, WrongAssignmentHasLargeResidual) {
  // A perfect square fitted with a deliberately shuffled ray assignment
  // cannot reach a small residual.
  std::vector<Vec2> pts;
  for (int k = 0; k < 4; ++k) {
    pts.push_back(Vec2{std::cos(k * kPi / 2), std::sin(k * kPi / 2)});
  }
  std::vector<int> wrong = {0, 2, 1, 3};
  AngularGrid init;
  init.center = {0.01, -0.02};
  init.theta0 = 0.0;
  init.numRays = 4;
  const auto fit = fitAngularGrid(pts, wrong, 4, false, init);
  if (fit) {
    EXPECT_GT(fit->maxResidual, 0.1);
  }
}

TEST(PathEdgeTest, MultiSegmentArclengthContinuity) {
  Path p(Vec2{1, 0});
  p.arcAround({0, 0}, kPi / 2);   // quarter circle to (0,1)
  p.lineTo({0, 3});
  p.arcAround({1, 3}, -kPi / 2);  // quarter the other way
  const double len = p.length();
  EXPECT_NEAR(len, kPi / 2 + 2.0 + kPi / 2, 1e-12);
  // Continuity: small arclength steps move the point by at most the step
  // (chords bound arcs; at segment joints the chord can be notably
  // shorter) and never teleport.
  double prevS = 0.0;
  Vec2 prev = p.pointAt(0.0);
  for (double s = 0.05; s <= len; s += 0.05) {
    const Vec2 q = p.pointAt(s);
    const double step = s - prevS;
    EXPECT_LE(dist(prev, q), step + 1e-9);
    EXPECT_GE(dist(prev, q), 0.5 * step);
    prev = q;
    prevS = s;
  }
}

TEST(PathEdgeTest, ZeroSweepArcIsEmpty) {
  Path p(Vec2{1, 0});
  p.arcAround({0, 0}, 0.0);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.end(), (Vec2{1, 0}));
}

TEST(PathEdgeTest, TransformedScalesLength) {
  Path p(Vec2{1, 0});
  p.arcAround({0, 0}, 1.0);
  p.lineTo({5, 5});
  const Similarity t(0.7, 3.0, true, {1, -1});
  const Path q = p.transformed(t);
  EXPECT_NEAR(q.length(), 3.0 * p.length(), 1e-9);
  EXPECT_LT(dist(q.end(), t.apply(p.end())), 1e-9);
  EXPECT_LT(dist(q.pointAt(q.length() / 3),
                 t.apply(p.pointAt(p.length() / 3))),
            1e-9);
}

TEST(TransformEdgeTest, CompositionAssociative) {
  const Similarity a(0.5, 2.0, true, {1, 2});
  const Similarity b(1.1, 0.5, false, {-3, 0});
  const Similarity c(2.7, 1.5, true, {0, 4});
  const Vec2 p{0.3, -0.7};
  const Vec2 left = ((a * b) * c).apply(p);
  const Vec2 right = (a * (b * c)).apply(p);
  EXPECT_NEAR(left.x, right.x, 1e-9);
  EXPECT_NEAR(left.y, right.y, 1e-9);
}

TEST(TransformEdgeTest, FactoriesBehave) {
  EXPECT_EQ(Similarity::translation({2, 3}).apply({1, 1}), (Vec2{3, 4}));
  const Vec2 r = Similarity::rotation(kPi / 2).apply({1, 0});
  EXPECT_NEAR(r.x, 0.0, 1e-15);
  EXPECT_NEAR(r.y, 1.0, 1e-15);
  EXPECT_EQ(Similarity::mirrorX().apply({1, 2}), (Vec2{1, -2}));
  EXPECT_EQ(Similarity::scaling(3.0).apply({1, -1}), (Vec2{3, -3}));
}

TEST(TransformEdgeTest, ReflectionParityComposes) {
  const Similarity m = Similarity::mirrorX();
  EXPECT_TRUE((m * Similarity::rotation(1.0)).reflects());
  EXPECT_FALSE((m * m).reflects());
  const Vec2 p{0.4, 1.7};
  const Vec2 round = (m * m).apply(p);
  EXPECT_NEAR(round.x, p.x, 1e-12);
  EXPECT_NEAR(round.y, p.y, 1e-12);
}

TEST(WeberEdgeTest, TwoAndThreePoints) {
  // Two points: any point on the segment minimizes; our iteration returns
  // something ON the segment.
  const Vec2 two[] = {{0, 0}, {2, 0}};
  const Vec2 w2 = weberPoint(two);
  EXPECT_NEAR(w2.y, 0.0, 1e-9);
  EXPECT_GE(w2.x, -1e-9);
  EXPECT_LE(w2.x, 2.0 + 1e-9);
  // Equilateral triangle: the center.
  std::vector<Vec2> tri;
  for (int k = 0; k < 3; ++k) {
    tri.push_back(Vec2{std::cos(k * kTwoPi / 3), std::sin(k * kTwoPi / 3)});
  }
  EXPECT_LT(weberPoint(tri).norm(), 1e-7);
  // Obtuse "Fermat" case: with one point dominating (angle >= 120 deg),
  // the median is AT that vertex.
  const Vec2 fermat[] = {{0, 0}, {10, 0.5}, {10, -0.5}};
  const Vec2 wf = weberPoint(fermat);
  EXPECT_LT(dist(wf, {10, 0.5}) + dist(wf, {10, -0.5}) + wf.norm(),
            dist(Vec2{10, 0}, {10, 0.5}) * 2 + 10.01);
}

}  // namespace
}  // namespace apf::geom

/// The certified reuse of C(P) (geom::SecCarry) and the carried radius order
/// of Configuration::normalized(), each against the plain computation it
/// replaces:
///   (a) on every Compute of live `form` runs (n = 16, 64 and 128, and runs
///       with omission and noise Look faults, where the snapshot size
///       changes), the snapshot's sec() equals smallestEnclosingCircle bit
///       for bit, and the normalized table's byRadius equals a fresh
///       (radius, index) sort;
///   (b) co-circular regular polygons, where the certificate must hand over;
///   (c) a point bisected to adjacent doubles at the depth margin, and
///       points between the rounding and the margin next to each basis
///       point;
///   (d) near-right and right 3-point bases, which must hand over, an
///       obtuse triangle, whose circle has a 2-point basis, and a triangle
///       with its vertices doubled.
/// Any disagreement is a changed decision downstream.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "config/generator.h"
#include "core/form_pattern.h"
#include "geom/sec.h"
#include "io/patterns.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace apf {
namespace {

using config::Configuration;
using geom::Circle;
using geom::SecCarry;
using geom::Vec2;

bool sameBits(const Circle& a, const Circle& b) {
  return std::bit_cast<std::uint64_t>(a.center.x) ==
             std::bit_cast<std::uint64_t>(b.center.x) &&
         std::bit_cast<std::uint64_t>(a.center.y) ==
             std::bit_cast<std::uint64_t>(b.center.y) &&
         std::bit_cast<std::uint64_t>(a.radius) ==
             std::bit_cast<std::uint64_t>(b.radius);
}

/// carry.of(pts) against Welzl, bit for bit; returns whether it certified.
bool ofMatchesWelzl(SecCarry& carry, const std::vector<Vec2>& pts,
                    const std::string& what) {
  const Circle got = carry.of(pts);
  EXPECT_TRUE(sameBits(got, geom::smallestEnclosingCircle(pts))) << what;
  return carry.certified();
}

// ---------------------------------------------------------------------------
// (a) live Look sequences
// ---------------------------------------------------------------------------

/// Runs `inner` and then checks the snapshot it computed on: its circle
/// against Welzl and its normalized table's order against a fresh sort.
class Checked final : public sim::Algorithm {
 public:
  explicit Checked(const sim::Algorithm& inner) : inner_(inner) {}

  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    sim::Action act = inner_.compute(snap, rng);
    ++computes;
    if (!sameBits(snap.robots.sec(),
                  geom::smallestEnclosingCircle(snap.robots.span()))) {
      ++circleMismatches;
    }
    if (snap.robots.sec().radius > 0.0) {
      const config::PolarTable& t = snap.robots.normalized().polar(Vec2{});
      std::vector<std::size_t> fresh(t.radius.size());
      std::iota(fresh.begin(), fresh.end(), std::size_t{0});
      std::sort(fresh.begin(), fresh.end(), [&](std::size_t a, std::size_t b) {
        return t.radius[a] < t.radius[b] ||
               (t.radius[a] == t.radius[b] && a < b);
      });
      if (fresh != t.byRadius) ++orderMismatches;
    }
    return act;
  }
  std::string name() const override { return inner_.name(); }

  mutable std::uint64_t computes = 0;
  mutable std::uint64_t circleMismatches = 0;
  mutable std::uint64_t orderMismatches = 0;

 private:
  const sim::Algorithm& inner_;
};

struct LiveTally {
  std::uint64_t misses = 0;
  std::uint64_t certified = 0;
};

/// Runs `sc`'s run 0 with every Compute checked; returns the sec() misses
/// and how many the carried circle answered.
LiveTally runChecked(const sim::Scenario& sc, const std::string& what) {
  core::FormPatternAlgorithm form;
  Checked checked(form);
  const config::GeomCacheCounters before = config::geomCacheCounters();
  sim::Engine eng(sim::startFor(sc, sc.baseSeed), sc.pattern, checked,
                  sim::engineOptions(sc, sc.baseSeed));
  (void)eng.run();
  const config::GeomCacheCounters after = config::geomCacheCounters();
  EXPECT_GT(checked.computes, 0u) << what;
  EXPECT_EQ(checked.circleMismatches, 0u) << what;
  EXPECT_EQ(checked.orderMismatches, 0u) << what;
  return {after.secMisses - before.secMisses,
          after.secCertified - before.secCertified};
}

sim::Scenario randomScenario(std::size_t n, std::uint64_t seed,
                             std::uint64_t maxEvents) {
  sim::Scenario sc;
  sc.pattern = io::randomPatternByName(n, seed + 1000);
  sc.patternLabel = "random";
  sc.baseSeed = seed;
  sc.maxEvents = maxEvents;
  return sc;
}

TEST(SecCertificateTest, LiveLooksMatchWelzlAndAFreshSort) {
  struct Case {
    std::size_t n;
    std::uint64_t seed;
    std::uint64_t maxEvents;
  };
  const Case cases[] = {{16, 1, 1000000}, {16, 2, 1000000}, {16, 3, 1000000},
                        {64, 1, 40000},   {128, 2, 40000}};
  for (const Case& c : cases) {
    const std::string what =
        "n " + std::to_string(c.n) + " seed " + std::to_string(c.seed);
    const LiveTally t = runChecked(randomScenario(c.n, c.seed, c.maxEvents),
                                   what);
    std::printf("%s: %llu of %llu sec() misses certified\n", what.c_str(),
                static_cast<unsigned long long>(t.certified),
                static_cast<unsigned long long>(t.misses));
    // The comparison has teeth: a good share of the misses took the
    // certified path.
    EXPECT_GT(t.certified * 4, t.misses) << what;
  }
}

TEST(SecCertificateTest, LookFaultsChangingTheSnapshotSizeMatchWelzl) {
  for (std::size_t n : {16u, 32u}) {
    sim::Scenario omit = randomScenario(n, 5, 20000);
    omit.fault.omitProb = 0.05;
    sim::Scenario noise = randomScenario(n, 6, 20000);
    noise.fault.noiseSigma = 1e-4;
    sim::Scenario both = randomScenario(n, 7, 20000);
    both.fault.omitProb = 0.02;
    both.fault.noiseSigma = 1e-6;
    for (const auto& [sc, label] :
         {std::pair{&omit, "omit"}, std::pair{&noise, "noise"},
          std::pair{&both, "omit+noise"}}) {
      (void)runChecked(*sc, std::string(label) + " n " + std::to_string(n));
    }
  }
}

// ---------------------------------------------------------------------------
// (b) co-circular polygons
// ---------------------------------------------------------------------------

TEST(SecCertificateTest, CoCircularPolygonsHandOver) {
  for (std::size_t k : {4u, 5u, 6u, 8u, 16u, 32u}) {
    std::vector<Vec2> pts;
    const Vec2 c{0.7, -1.3};
    for (std::size_t i = 0; i < k; ++i) {
      const double a = 6.283185307179586 * static_cast<double>(i) /
                       static_cast<double>(k);
      pts.push_back(c + Vec2{2.5 * std::cos(a), 2.5 * std::sin(a)});
    }
    for (int i = 0; i < 6; ++i) {
      pts.push_back(c + Vec2{0.3 * i - 0.8, 0.2 * i - 0.5});
    }
    const std::string what = std::to_string(k) + "-gon";
    SecCarry carry;
    EXPECT_FALSE(ofMatchesWelzl(carry, pts, what));
    for (int step = 0; step < 6; ++step) {
      pts[k + static_cast<std::size_t>(step)] += Vec2{0.01, -0.02};
      // Every polygon vertex lies on C: a non-basis one fails the margin.
      EXPECT_FALSE(ofMatchesWelzl(carry, pts, what)) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// (c) the depth margin
// ---------------------------------------------------------------------------

/// An acute triangle on a circle about `c` of radius `r`, plus interior
/// points well inside: its carried circle certifies again once carried.
std::vector<Vec2> acuteWithInterior(Vec2 c, double r, std::size_t inner) {
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < inner; ++i) {
    const double a = 0.9 * static_cast<double>(i);
    const double rho = r * (0.2 + 0.5 * static_cast<double>(i % 5) / 5.0);
    pts.push_back(c + Vec2{rho * std::cos(a), rho * std::sin(a)});
  }
  for (double a : {0.3, 2.4, 4.3}) {
    pts.push_back(c + Vec2{r * std::cos(a), r * std::sin(a)});
  }
  return pts;
}

TEST(SecCertificateTest, BisectedMarginPointsMatchWelzl) {
  const Vec2 c0{0.25, -0.5};
  const double r0 = 3.0;
  std::vector<Vec2> pts = acuteWithInterior(c0, r0, 12);
  SecCarry carry;
  ASSERT_FALSE(ofMatchesWelzl(carry, pts, "first call"));
  ASSERT_TRUE(ofMatchesWelzl(carry, pts, "unchanged"));
  const Circle C = geom::smallestEnclosingCircle(pts);
  const double R = C.radius;
  const std::size_t m = 0;  // an interior point, moved along rays
  const std::vector<Vec2> base = pts;
  for (double ray : {0.35, 2.35, 4.25, 1.4}) {  // near each basis point, and between
    const Vec2 u{std::cos(ray), std::sin(ray)};
    const auto at = [&](double rho) {
      std::vector<Vec2> p = base;
      p[m] = C.center + u * rho;
      return p;
    };
    // Bisect rho to adjacent doubles: the last one certified and the first
    // one handed over. The carry is re-seeded from `base` before each probe
    // so every probe certifies against the same circle.
    double lo = R * (1.0 - 4.0 * SecCarry::kDepth), hi = R;
    const auto certifies = [&](double rho) {
      SecCarry probe;
      (void)probe.of(base);
      return ofMatchesWelzl(probe, at(rho), "probe");
    };
    ASSERT_TRUE(certifies(lo)) << ray;
    ASSERT_FALSE(certifies(hi)) << ray;
    for (;;) {
      const double mid = lo + (hi - lo) / 2.0;
      if (mid <= lo || mid >= hi) break;
      (certifies(mid) ? lo : hi) = mid;
    }
    ASSERT_EQ(std::nextafter(lo, hi), hi) << ray;
    // The flip sits at the documented margin, R (1 - kDepth).
    EXPECT_NEAR(lo / R, 1.0 - SecCarry::kDepth, 1e-12) << ray;
    // Points between the rounding and the margin hand over; Welzl decides.
    for (double depth : {0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-10,
                         1e-8, 5e-7}) {
      SecCarry probe;
      (void)probe.of(base);
      EXPECT_FALSE(ofMatchesWelzl(probe, at(R * (1.0 - depth)), "depth"))
          << ray << " " << depth;
    }
  }
}

// ---------------------------------------------------------------------------
// (d) right, near-right and obtuse bases
// ---------------------------------------------------------------------------

/// b1, b2 a diameter of the circle about `c` of radius 2; b3 on the circle
/// at angle `a3`, pushed outward by `push` (relative): the angle at b3 is
/// right for push = 0 and just acute for push > 0. Interior points sit at
/// radius at most 1.
std::vector<Vec2> rightish(Vec2 c, double a3, double push) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 10; ++i) {
    const double a = 0.7 * i;
    pts.push_back(c + Vec2{0.1 * i * std::cos(a), 0.1 * i * std::sin(a)});
  }
  pts.push_back(c + Vec2{2.0, 0.0});
  pts.push_back(c + Vec2{-2.0, 0.0});
  pts.push_back(c + Vec2{2.0 * (1.0 + push) * std::cos(a3),
                         2.0 * (1.0 + push) * std::sin(a3)});
  return pts;
}

TEST(SecCertificateTest, NearRightBasesHandOver) {
  int threePoint = 0;
  for (double a3 : {0.6, 1.1, 1.9, 2.5, 4.0}) {
    // The angle at b3 is 90 degrees minus about push: cos(angle) < 1e-2.
    for (double push : {1e-9, 1e-6, 1e-4, 2e-3}) {
      std::vector<Vec2> pts = rightish(Vec2{-0.4, 1.1}, a3, push);
      SecCarry carry;
      (void)ofMatchesWelzl(carry, pts, "first");
      const Circle C = geom::smallestEnclosingCircle(pts);
      // b3 lies on C only when the circle is the 3-point one.
      const bool onC = std::fabs(geom::dist(pts.back(), C.center) - C.radius) <
                       1e-12 * C.radius;
      threePoint += onC;
      pts[3] += Vec2{0.05, 0.05};
      const bool certified = ofMatchesWelzl(carry, pts, "moved");
      // A 3-point basis with an angle this close to right never certifies.
      if (onC) {
        EXPECT_FALSE(certified) << a3 << " " << push;
      }
    }
    // Well acute at b3 (cos about 0.2): the same construction certifies.
    std::vector<Vec2> pts = rightish(Vec2{-0.4, 1.1}, a3, 0.25);
    SecCarry carry;
    (void)ofMatchesWelzl(carry, pts, "first");
    pts[3] += Vec2{0.05, 0.05};
    EXPECT_TRUE(ofMatchesWelzl(carry, pts, "acute")) << a3;
  }
  EXPECT_GT(threePoint, 10);
}

TEST(SecCertificateTest, RightAndObtuseTrianglesMatchWelzl) {
  // push = 0 (right angle at b3, up to the rounding of cos and sin) and
  // push < 0 (obtuse at b3: C is b1 b2's diametral circle, a 2-point
  // basis, and b3 an inner point). Either way every call equals Welzl.
  for (double a3 : {0.6, 1.1, 1.9, 2.5, 4.0}) {
    for (double push : {0.0, -1e-15, -1e-9, -1e-7, -1e-3}) {
      std::vector<Vec2> pts = rightish(Vec2{0.3, 0.2}, a3, push);
      SecCarry carry;
      (void)ofMatchesWelzl(carry, pts, "first");
      for (int step = 0; step < 4; ++step) {
        pts[static_cast<std::size_t>(step)] += Vec2{0.02, -0.03};
        (void)ofMatchesWelzl(carry, pts, "step");
      }
    }
  }
}

TEST(SecCertificateTest, CoincidentPointsOnTheCircleMatchWelzl) {
  // Every triangle vertex doubled: each copy that is not in the basis lies
  // on C, so the margin test hands over on every call.
  std::vector<Vec2> pts = acuteWithInterior(Vec2{-2.0, 0.5}, 1.5, 7);
  const std::size_t n = pts.size();
  for (std::size_t v = n - 3; v < n; ++v) pts.push_back(pts[v]);
  SecCarry carry;
  (void)ofMatchesWelzl(carry, pts, "first");
  for (int step = 0; step < 5; ++step) {
    pts[static_cast<std::size_t>(step)] += Vec2{0.01, 0.02};
    EXPECT_FALSE(ofMatchesWelzl(carry, pts, "doubled")) << step;
  }
}

TEST(SecCertificateTest, SizeChangeAndMovedBasisHandOver) {
  std::vector<Vec2> pts = acuteWithInterior(Vec2{1.0, 2.0}, 4.0, 9);
  SecCarry carry;
  (void)ofMatchesWelzl(carry, pts, "first");
  ASSERT_TRUE(ofMatchesWelzl(carry, pts, "same"));
  pts.push_back(Vec2{1.0, 2.5});
  EXPECT_FALSE(ofMatchesWelzl(carry, pts, "grown"));
  ASSERT_TRUE(ofMatchesWelzl(carry, pts, "same again"));
  // One ulp on a basis point: its bits changed, so Welzl runs.
  std::size_t b = pts.size() - 2;  // the second triangle vertex
  pts[b].x = std::nextafter(pts[b].x, 100.0);
  EXPECT_FALSE(ofMatchesWelzl(carry, pts, "basis ulp"));
}

}  // namespace
}  // namespace apf

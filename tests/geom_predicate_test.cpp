/// geom::normLeq, the squared-norm distance-vs-threshold predicate, against
/// its definition `std::hypot(d.x, d.y) <= t`, and Welzl's algorithm (whose
/// containment test goes through it) against a test-only copy that calls
/// hypot on every comparison:
///   (a) normLeq on 10^6 random (d, t) pairs at scales 1e-170..1e170,
///       three quarters of them at t or within 1e-16..1e-3 of it; on |d| =
///       t(1 +- k 2^-52), k = 0..64, at several directions and thresholds
///       (1e-160 to 1e160, and live Welzl thresholds r(1 + 1e-14) + 1e-14);
///       and on zero, negative, tiny, huge, infinite and NaN thresholds
///       and vectors;
///   (b) smallestEnclosingCircle and secHolders bit for bit against the
///       hypot Welzl on the generator corpora, at three coordinate scales,
///       on regular and two concentric polygons whose co-circular points
///       fall inside normLeq's band, and on snapshots of live `form` runs
///       (n = 16 and 64 from random starts, two concentric 16-gons).
/// Any disagreement is a changed decision somewhere downstream.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "geom/angle.h"
#include "geom/circle.h"
#include "geom/sec.h"
#include "sim/engine.h"

namespace apf {
namespace {

using config::Configuration;
using config::Rng;
using geom::Circle;
using geom::Tol;
using geom::Vec2;

bool hypotLeq(Vec2 d, double t) { return std::hypot(d.x, d.y) <= t; }

std::string describe(Vec2 d, double t) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "d=(%a, %a) t=%a", d.x, d.y, t);
  return buf;
}

// --- Oracle: Welzl with hypot in every containment test. ---

namespace oracle {

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
    if (!oracle::inCircle(c, shuffled[i])) {
      c = oracle::secWithOne(shuffled, i, shuffled[i]);
    }
  }
  return c;
}

bool nearlyEqual(Vec2 a, Vec2 b, const Tol& tol) {
  return geom::dist(a, b) <= tol.dist;
}

std::vector<std::size_t> secHolders(std::span<const Vec2> pts,
                                    const Tol& tol = geom::kDefaultTol) {
  const Circle whole = oracle::smallestEnclosingCircle(pts);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!geom::distEq(geom::dist(pts[i], whole.center), whole.radius, tol)) {
      continue;
    }
    std::vector<Vec2> rest;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) rest.push_back(pts[j]);
    }
    const Circle without = oracle::smallestEnclosingCircle(rest);
    if (!geom::distEq(without.radius, whole.radius, tol) ||
        !oracle::nearlyEqual(without.center, whole.center, tol)) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace oracle

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Welzl and secHolders against the oracle, bit for bit.
void checkWelzl(const Configuration& p, const std::string& what) {
  const Circle got = geom::smallestEnclosingCircle(p.span());
  const Circle want = oracle::smallestEnclosingCircle(p.span());
  EXPECT_EQ(bits(got.center.x), bits(want.center.x)) << what;
  EXPECT_EQ(bits(got.center.y), bits(want.center.y)) << what;
  EXPECT_EQ(bits(got.radius), bits(want.radius)) << what;
  EXPECT_EQ(geom::secHolders(p.span()), oracle::secHolders(p.span())) << what;
}

Configuration mapped(const Configuration& p, double scale, Vec2 offset) {
  std::vector<Vec2> out;
  for (const Vec2& q : p.points()) out.push_back(q * scale + offset);
  return Configuration(std::move(out));
}

Configuration twoConcentric(std::size_t k, double r1, double r2,
                            double phase) {
  Configuration p = config::regularPolygon(k, r1, {}, 0.0);
  const Configuration inner = config::regularPolygon(k, r2, {}, phase);
  for (const Vec2& q : inner.points()) p.push_back(q);
  return p;
}

/// |d| = t (1 + s k 2^-52) for k = 0..64 and s = +-1, along the axes, the
/// diagonal and two generic directions, plus each such d nudged by one ulp
/// in x. Returns the number of cases checked.
int checkUlpSweep(double t) {
  int cases = 0;
  const double ulp = std::ldexp(1.0, -52);
  for (double theta : {0.0, geom::kPi / 2, geom::kPi / 4, 0.3, 2.7}) {
    const Vec2 u{std::cos(theta), std::sin(theta)};
    for (int k = 0; k <= 64; ++k) {
      for (double s : {-1.0, 1.0}) {
        const double r = t * (1.0 + s * k * ulp);
        const Vec2 d = u * r;
        const Vec2 nudged{std::nextafter(d.x, 2 * d.x + 1.0), d.y};
        for (Vec2 v : {d, nudged, -d}) {
          EXPECT_EQ(geom::normLeq(v, t), hypotLeq(v, t)) << describe(v, t);
          ++cases;
        }
      }
    }
  }
  return cases;
}

// --- (a) normLeq against its definition. ---

TEST(GeomPredicateTest, NormLeqMatchesHypotOnRandomPairs) {
  std::mt19937_64 rng(0x9e0d);
  std::uniform_real_distribution<double> expo(-170.0, 170.0);
  std::uniform_real_distribution<double> ang(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> relExp(-16.5, -3.0);
  int mismatches = 0;
  int inBand = 0;
  for (int trial = 0; trial < 1'000'000; ++trial) {
    const double t = std::pow(10.0, expo(rng));
    const double a = ang(rng);
    double r = 0.0;
    switch (trial % 4) {
      case 0:  // anywhere within three decades of t
        r = t * std::pow(10.0, 3.0 * unit(rng));
        break;
      case 3:  // right at t, as the algorithms' tolerances often are
        r = t;
        break;
      default:  // within 1e-16..1e-3 relative of t, either side
        r = t * (1.0 + std::copysign(std::pow(10.0, relExp(rng)), unit(rng)));
        break;
    }
    const Vec2 d{r * std::cos(a), r * std::sin(a)};
    const double dn = std::hypot(d.x, d.y);
    if (std::fabs(dn - t) <= 1e-12 * t) ++inBand;
    if (geom::normLeq(d, t) != hypotLeq(d, t)) {
      if (++mismatches <= 10) ADD_FAILURE() << describe(d, t);
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The corpus must actually reach the hypot band, not only the fast path.
  EXPECT_GT(inBand, 100'000);
}

TEST(GeomPredicateTest, NormLeqMatchesHypotWithinUlpsOfThreshold) {
  int cases = 0;
  // Below 1e-150 the squares lose precision as subnormals and normLeq
  // must go to hypot; above 1e150 they overflow.
  for (double t : {1e-14, 1e-9, 1.0, 1e-160, 1e-155, 1e155, 1e160}) {
    cases += checkUlpSweep(t);
  }
  // Live Welzl thresholds: r (1 + 1e-14) + 1e-14 for circles the kernel
  // computes on random and polygonal configurations.
  Rng rng(4242);
  std::vector<Configuration> corpus;
  for (std::size_t n : {3u, 8u, 16u, 64u}) {
    corpus.push_back(config::randomConfiguration(n, rng, 2.0, 1e-3));
  }
  corpus.push_back(config::regularPolygon(16, 1.0));
  corpus.push_back(twoConcentric(16, 1.0, 0.6, geom::kPi / 16.0));
  for (const Configuration& p : corpus) {
    const Circle c = geom::smallestEnclosingCircle(p.span());
    cases += checkUlpSweep(c.radius * (1.0 + 1e-14) + 1e-14);
  }
  EXPECT_GT(cases, 10'000);
}

TEST(GeomPredicateTest, NormLeqEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const std::vector<double> ts = {0.0,  -0.0, -1.0, 1e-160, 1e-150, 1e150,
                                  1e160, inf,  -inf, nan,    1.0,    1e-9};
  const std::vector<Vec2> ds = {
      {0.0, 0.0},  {-0.0, 0.0}, {sub, 0.0},   {sub, sub},   {0.0, -sub},
      {1e200, 0.0}, {1e200, 1e200}, {1e-200, 1e-200}, {inf, 0.0},
      {0.0, -inf}, {nan, 0.0},  {0.0, nan},   {inf, nan},   {nan, inf},
      {1e-160, 0.0}, {0.6e-160, 0.8e-160}, {1e150, 0.0}, {0.6e150, 0.8e150},
      {3.0, 4.0},  {1e-9, 0.0}};
  for (double t : ts) {
    for (Vec2 d : ds) {
      EXPECT_EQ(geom::normLeq(d, t), hypotLeq(d, t)) << describe(d, t);
    }
  }
}

/// The predicates built on normLeq keep their hypot definitions.
TEST(GeomPredicateTest, CoincidenceAndContainmentMatchHypot) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int trial = 0; trial < 100'000; ++trial) {
    const Vec2 a{unit(rng), unit(rng)};
    const double tolDist = std::pow(10.0, -3.0 - 10.0 * std::fabs(unit(rng)));
    const double ang = geom::kPi * unit(rng);
    const double r = tolDist * (1.0 + 1e-12 * unit(rng));
    const Vec2 b = a + Vec2{std::cos(ang), std::sin(ang)} * r;
    const Tol tol{tolDist, 1e-9};
    EXPECT_EQ(geom::nearlyEqual(a, b, tol), oracle::nearlyEqual(a, b, tol))
        << describe(a - b, tolDist);
    const Circle c{a, 0.5 * std::fabs(unit(rng))};
    const Vec2 q = a + Vec2{std::cos(ang), std::sin(ang)} *
                           ((c.radius + tolDist) * (1.0 + 1e-13 * unit(rng)));
    EXPECT_EQ(c.contains(q, tol),
              geom::dist(q, c.center) <= c.radius + tol.dist)
        << describe(q - c.center, c.radius + tolDist);
  }
}

// --- (b) Welzl bit for bit against the hypot Welzl. ---

TEST(GeomPredicateTest, WelzlMatchesHypotWelzlOnGeneratorCorpora) {
  Rng rng(2025);
  std::vector<Configuration> corpus;
  for (std::size_t n = 2; n <= 128; n += (n < 16 ? 1 : 16)) {
    for (int rep = 0; rep < 3; ++rep) {
      corpus.push_back(config::randomConfiguration(n, rng, 2.0, 1e-3));
    }
  }
  for (std::size_t m : {3u, 4u, 7u, 12u, 16u, 32u}) {
    corpus.push_back(config::regularPolygon(m, 1.5, {0.3, -0.7}, 0.2));
    corpus.push_back(twoConcentric(m, 1.0, 0.55, geom::kPi / m));
    corpus.push_back(twoConcentric(m, 1.0, 0.55, 0.0));
  }
  for (int pairs = 1; pairs <= 8; ++pairs) {
    corpus.push_back(config::axialConfiguration(pairs, pairs % 3, rng));
  }
  for (int rho : {2, 3, 4, 6}) {
    corpus.push_back(config::symmetricConfiguration(rho, 3, rng));
  }
  for (std::size_t n : {8u, 16u, 64u}) {
    corpus.push_back(config::randomPattern(n, rng));
  }
  // Multiplicity points and a point at the center.
  Configuration multi = config::regularPolygon(6, 1.0);
  multi.push_back(multi[0]);
  multi.push_back(multi[3]);
  multi.push_back(Vec2{});
  corpus.push_back(multi);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    for (double scale : {1.0, 1e-3, 1e3}) {
      checkWelzl(mapped(corpus[k], scale, Vec2{0.25, -0.5} * scale),
                 "corpus " + std::to_string(k) + " scale " +
                     std::to_string(scale));
    }
  }
}

/// Points of p within normLeq's 1 +- 1e-12 band around the Welzl threshold
/// of p's circle, where the squared-norm test defers to hypot.
int pointsInBand(const Configuration& p) {
  const Circle c = geom::smallestEnclosingCircle(p.span());
  const double t = c.radius * (1.0 + 1e-14) + 1e-14;
  int in = 0;
  for (const Vec2& q : p.points()) {
    const Vec2 d = q - c.center;
    const double d2 = d.x * d.x + d.y * d.y;
    in += std::fabs(d2 - t * t) <= t * t * 1e-12;
  }
  return in;
}

/// Regular polygons and two concentric polygons (on one circle or two),
/// at several scales, offsets and rotations: their co-circular points land
/// inside normLeq's band, where Welzl's per-circle threshold must still
/// give normLeq's decisions.
TEST(GeomPredicateTest, WelzlMatchesHypotWelzlOnCoCircularSets) {
  int inBand = 0;
  for (double scale : {1.0, 1e-3, 1e3}) {
    const Vec2 offset = Vec2{0.3, -0.7} * scale;
    for (std::size_t m = 3; m <= 64; m += (m < 16 ? 1 : 8)) {
      const double step = geom::kPi / static_cast<double>(m);
      for (double phase : {0.0, 0.2, step}) {
        const std::string what = "m=" + std::to_string(m) + " phase " +
                                 std::to_string(phase) + " scale " +
                                 std::to_string(scale);
        const Configuration gon =
            mapped(config::regularPolygon(m, 1.0, {}, phase), scale, offset);
        checkWelzl(gon, "polygon " + what);
        inBand += pointsInBand(gon);
        for (double inner : {0.55, 1.0}) {
          const Configuration two =
              mapped(twoConcentric(m, 1.0, inner, phase + step / 2.0), scale,
                     offset);
          checkWelzl(two, "two polygons r2=" + std::to_string(inner) + " " +
                              what);
          inBand += pointsInBand(two);
        }
      }
    }
  }
  EXPECT_GT(inBand, 0) << "no point reached normLeq's hypot band";
}

/// Records every 4th snapshot a `form` run's robots see.
class SnapshotTap final : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    if (calls_++ % 4 == 0 && snaps.size() < 200) snaps.push_back(snap);
    return inner_.compute(snap, rng);
  }
  std::string name() const override { return "tap(" + inner_.name() + ")"; }

  mutable std::vector<sim::Snapshot> snaps;

 private:
  core::FormPatternAlgorithm inner_;
  mutable std::size_t calls_ = 0;
};

TEST(GeomPredicateTest, WelzlMatchesHypotWelzlOnLiveSnapshots) {
  struct Case {
    const char* name;
    Configuration start;
    std::uint64_t events;
  };
  Rng rng(1664);
  const std::vector<Case> cases = {
      {"random n=16", config::randomConfiguration(16, rng, 3.0, 0.05), 4000},
      {"random n=64", config::randomConfiguration(64, rng, 3.0, 0.05), 800},
      {"two 16-gons", twoConcentric(16, 1.0, 0.6, geom::kPi / 16.0), 800},
      {"two 16-gons aligned", twoConcentric(16, 1.0, 0.6, 0.0), 800},
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
    for (std::size_t k = 0; k < tap.snaps.size(); ++k) {
      const Configuration& raw = tap.snaps[k].robots;
      const std::string what =
          std::string(c.name) + " snapshot " + std::to_string(k);
      checkWelzl(raw, what + " (robot frame)");
      checkWelzl(raw.transformed(raw.normalizingTransform()),
                 what + " (normalized)");
    }
  }
}

}  // namespace
}  // namespace apf

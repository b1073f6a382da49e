/// Configuration's memoized smallest enclosing circle and polar tables: the
/// caches must be invisible — sec() always returns exactly what a fresh
/// Welzl run over the current points returns, and polar(c) exactly the
/// per-point dist/arg/norm2pi, across mutation, copy, and move. Labelled
/// `perf` so the TSan CI lane runs it alongside the campaign tests.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "config/configuration.h"
#include "config/generator.h"
#include "geom/angle.h"
#include "geom/sec.h"

namespace apf::config {
namespace {

/// Exact (bit-level) circle comparison: the cache stores the result of the
/// very same smallestEnclosingCircle call, so nothing may differ.
void expectSecFresh(const Configuration& cfg, const char* what) {
  const Circle fresh = geom::smallestEnclosingCircle(cfg.span());
  const Circle cached = cfg.sec();
  EXPECT_EQ(cached.center.x, fresh.center.x) << what;
  EXPECT_EQ(cached.center.y, fresh.center.y) << what;
  EXPECT_EQ(cached.radius, fresh.radius) << what;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bit-level comparison of polar(c) with the expressions it memoizes,
/// evaluated afresh over the current points.
void expectPolarFresh(const Configuration& cfg, Vec2 c, const char* what) {
  const PolarTable& t = cfg.polar(c);
  ASSERT_EQ(t.radius.size(), cfg.size()) << what;
  ASSERT_EQ(t.arg.size(), cfg.size()) << what;
  ASSERT_EQ(t.dir.size(), cfg.size()) << what;
  for (std::size_t i = 0; i < cfg.size(); ++i) {
    const double arg = (cfg[i] - c).arg();
    EXPECT_EQ(bits(t.radius[i]), bits(geom::dist(cfg[i], c))) << what << i;
    EXPECT_EQ(bits(t.arg[i]), bits(arg)) << what << i;
    EXPECT_EQ(bits(t.dir[i]), bits(geom::norm2pi(arg))) << what << i;
  }
}

TEST(SecCacheTest, CachedMatchesFreshOnRandomConfigurations) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(100 + trial);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 40);
    const Configuration cfg = randomConfiguration(n, rng, 5.0, 0.05);
    expectSecFresh(cfg, "first call");
    expectSecFresh(cfg, "second call (cache hit)");
  }
}

TEST(SecCacheTest, MutationThroughIndexInvalidates) {
  Rng rng(7);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Circle before = cfg.sec();
  cfg[0] = Vec2{100.0, 100.0};  // far outside the old circle
  const Circle after = cfg.sec();
  EXPECT_GT(after.radius, before.radius);
  expectSecFresh(cfg, "after operator[] mutation");
}

TEST(SecCacheTest, PushBackInvalidates) {
  Rng rng(8);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Circle before = cfg.sec();
  cfg.push_back(Vec2{-50.0, 40.0});
  const Circle after = cfg.sec();
  EXPECT_GT(after.radius, before.radius);
  expectSecFresh(cfg, "after push_back");
}

TEST(SecCacheTest, ConstAccessDoesNotInvalidate) {
  Rng rng(9);
  Configuration cfg = randomConfiguration(12, rng, 3.0, 0.1);
  const Circle warm = cfg.sec();
  const Configuration& view = cfg;
  (void)view[3];        // const operator[] must not touch the cache
  (void)view.points();
  const Circle again = cfg.sec();
  EXPECT_EQ(warm.center.x, again.center.x);
  EXPECT_EQ(warm.center.y, again.center.y);
  EXPECT_EQ(warm.radius, again.radius);
}

TEST(SecCacheTest, CopyCarriesIndependentCache) {
  Rng rng(10);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Circle orig = a.sec();  // warm before copying
  Configuration b = a;
  a[0] = Vec2{200.0, 0.0};  // mutating the source must not disturb the copy
  const Circle bSec = b.sec();
  EXPECT_EQ(bSec.center.x, orig.center.x);
  EXPECT_EQ(bSec.center.y, orig.center.y);
  EXPECT_EQ(bSec.radius, orig.radius);
  expectSecFresh(b, "copy");
  expectSecFresh(a, "mutated source");
}

TEST(SecCacheTest, MoveTransfersCacheAndResetsSource) {
  Rng rng(11);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Circle orig = a.sec();
  Configuration b = std::move(a);
  const Circle moved = b.sec();
  EXPECT_EQ(moved.center.x, orig.center.x);
  EXPECT_EQ(moved.center.y, orig.center.y);
  EXPECT_EQ(moved.radius, orig.radius);
  // The moved-from object is reusable: its stale cache must be gone.
  a = Configuration();
  a.push_back(Vec2{1.0, 0.0});
  a.push_back(Vec2{-1.0, 0.0});
  expectSecFresh(a, "reused moved-from object");

  Configuration c = randomConfiguration(7, rng, 3.0, 0.1);
  const Circle cOrig = c.sec();
  Configuration d;
  d = std::move(c);  // move-assignment path
  EXPECT_EQ(d.sec().radius, cOrig.radius);
  expectSecFresh(d, "move-assigned target");
}

TEST(PolarCacheTest, MutationsDropTheTables) {
  Rng rng(12);
  const Vec2 c{0.25, -0.5};
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  expectPolarFresh(cfg, c, "first call");
  expectPolarFresh(cfg, c, "cache hit");
  cfg[2] = Vec2{7.0, -3.0};
  expectPolarFresh(cfg, c, "after operator[] write");
  cfg.push_back(Vec2{-4.0, 1.0});
  expectPolarFresh(cfg, c, "after push_back");
  std::vector<Vec2> pts = cfg.releasePoints();
  expectPolarFresh(cfg, c, "after releasePoints");
  pts.pop_back();
  pts[0] = Vec2{0.5, 0.5};
  cfg.assign(std::move(pts));
  expectPolarFresh(cfg, c, "after assign");
}

TEST(PolarCacheTest, CopyKeepsAndMoveHandsOverTheTables) {
  Rng rng(13);
  const Vec2 c{-1.0, 2.0};
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  (void)a.polar(c);
  Configuration b = a;
  const auto before = geomCacheCounters();
  expectPolarFresh(b, c, "copy");
  EXPECT_EQ(geomCacheCounters().polarHits, before.polarHits + 1);
  a[0] = Vec2{50.0, 0.0};  // the copy's table must not move
  expectPolarFresh(b, c, "copy after source write");
  expectPolarFresh(a, c, "written source");

  Configuration moved = std::move(b);
  expectPolarFresh(moved, c, "move-constructed");
  expectPolarFresh(b, c, "moved-from object");  // no stale 9-point table
  Configuration d;
  d = std::move(moved);
  expectPolarFresh(d, c, "move-assigned target");
  expectPolarFresh(moved, c, "move-assigned source");
}

/// +0.0 and -0.0 compare equal, but (q - c).arg() can differ between them:
/// q = (-1, -0.0) lies at arg -pi from (0, +0.0) and at +pi from (0, -0.0).
TEST(PolarCacheTest, SignedZeroCentersGetSeparateTables) {
  const Configuration cfg({{-1.0, -0.0}, {0.0, 1.0}});
  const Vec2 plus{0.0, 0.0}, minus{0.0, -0.0};
  const auto before = geomCacheCounters();
  const PolarTable& tp = cfg.polar(plus);
  const PolarTable& tm = cfg.polar(minus);
  EXPECT_EQ(geomCacheCounters().polarMisses, before.polarMisses + 2);
  EXPECT_NE(&tp, &tm);
  EXPECT_EQ(tp.arg[0], -geom::kPi);
  EXPECT_EQ(tm.arg[0], geom::kPi);
  expectPolarFresh(cfg, plus, "+0.0 center");
  expectPolarFresh(cfg, minus, "-0.0 center");
}

/// A nested predicate may ask the same configuration for other centers
/// while a caller holds a table: the held table neither moves nor changes.
TEST(PolarCacheTest, HandleSurvivesOtherCenters) {
  Rng rng(14);
  const Configuration cfg = randomConfiguration(16, rng, 2.0, 0.1);
  const PolarTable& held = cfg.polar(Vec2{0.1, 0.2});
  const PolarTable copy = held;
  const double* data = held.arg.data();
  for (int k = 0; k < 40; ++k) {
    (void)cfg.polar(Vec2{0.01 * k, -0.02 * k});
  }
  EXPECT_EQ(&cfg.polar(Vec2{0.1, 0.2}), &held);
  EXPECT_EQ(held.arg.data(), data);
  EXPECT_EQ(held.radius, copy.radius);
  EXPECT_EQ(held.arg, copy.arg);
  EXPECT_EQ(held.dir, copy.dir);
  expectPolarFresh(cfg, Vec2{0.1, 0.2}, "held table");
}

}  // namespace
}  // namespace apf::config

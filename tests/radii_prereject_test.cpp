/// Boundary cases of Analysis's radii pre-rejection, which skips the
/// terminal similar(P, F) and finalMove's findSimilarity(F - {f_k},
/// P - {r}) when the sorted radii about C(P) already rule a match out.
/// Every case must give the same answer as a bare findSimilarity; a skipped
/// call (no circle computed for P or P - {r}) must also be one that
/// findSimilarity's own radius check rejects.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <random>
#include <vector>

#include "config/generator.h"
#include "config/similarity.h"
#include "core/analysis.h"
#include "geom/angle.h"

namespace apf::core {
namespace {

using config::Configuration;
using geom::Similarity;
using geom::Vec2;

constexpr geom::Tol kMatchTol{1e-6, 1e-6};
/// findSimilarity's bound on a sorted radius pair.
constexpr double kBound = 2.0 * kMatchTol.dist + 1e-12;

/// findSimilarity's radius check, as a bare oracle: true when it rejects.
bool radiusCheckRejects(const Configuration& a, const Configuration& b) {
  const geom::Circle ca = a.sec(), cb = b.sec();
  std::vector<double> ra, rb;
  for (const Vec2& p : a.points()) {
    ra.push_back(geom::dist(p, ca.center) / ca.radius);
  }
  for (const Vec2& p : b.points()) {
    rb.push_back(geom::dist(p, cb.center) / cb.radius);
  }
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (std::fabs(ra[i] - rb[i]) > kBound) return true;
  }
  return false;
}

/// True when a sorted radius pair of the polar table and F differs by more
/// than kBound: a pre-rejection without any rounding margin would fire.
bool tableBeyondBound(const Analysis& a) {
  std::vector<double> p = a.radii();
  std::sort(p.begin(), p.end());
  const std::vector<double>& f = a.patternInfo().radii;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (std::fabs(p[i] - f[i]) > kBound) return true;
  }
  return false;
}

std::uint64_t secMisses() { return config::geomCacheCounters().secMisses; }

sim::Snapshot snapshotOf(const Configuration& robots,
                         const Configuration& pattern) {
  sim::Snapshot snap;
  snap.robots = robots;
  snap.pattern = pattern;
  return snap;
}

void expectSameTransform(const std::optional<Similarity>& got,
                         const std::optional<Similarity>& want,
                         const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  for (const Vec2 q : {Vec2{0.0, 0.0}, Vec2{1.0, 0.0}, Vec2{0.3, -0.7}}) {
    const Vec2 g = got->apply(q), w = want->apply(q);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.x),
              std::bit_cast<std::uint64_t>(w.x)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.y),
              std::bit_cast<std::uint64_t>(w.y)) << what;
  }
}

/// Terminal check on one snapshot: same answer as similar(P, F), and a skip
/// only where findSimilarity's radius check rejects. Returns whether the
/// call was skipped.
bool checkTerminal(const sim::Snapshot& snap, const std::string& what) {
  Analysis a(snap);
  EXPECT_TRUE(a.ok()) << what;
  const std::uint64_t before = secMisses();
  const bool got = a.similarToF(kMatchTol);
  const bool skipped = secMisses() == before;
  EXPECT_EQ(got, config::similar(a.P(), a.F(), kMatchTol)) << what;
  if (skipped) {
    EXPECT_TRUE(radiusCheckRejects(a.P(), a.F())) << what;
  }
  return skipped;
}

/// finalMove's match for robot r and every k: same answer as the bare
/// findSimilarity, and a skip only where its radius check rejects.
void checkWithout(const sim::Snapshot& snap, std::size_t r,
                  const std::string& what) {
  const Analysis probe(snap);
  ASSERT_TRUE(probe.ok()) << what;
  const Configuration pWithout = probe.P().without(r);
  for (std::size_t k = 0; k < probe.patternInfo().fWithout.size(); ++k) {
    Analysis a(snap);  // fresh: no circle of P - {r} computed yet
    const std::uint64_t before = secMisses();
    const auto got = a.matchWithout(r, k, kMatchTol);
    const bool skipped = secMisses() == before;
    const auto want =
        config::findSimilarity(a.fWithout(k), pWithout, true, kMatchTol);
    const std::string at = what + " k=" + std::to_string(k);
    expectSameTransform(got, want, at);
    if (skipped) {
      EXPECT_TRUE(radiusCheckRejects(a.fWithout(k), pWithout)) << at;
    }
  }
}

/// A random similarity: scale, rotation, optional reflection and an
/// offset far from the origin, so the robots' frame rounds at ~1e-10.
Similarity randomFrame(config::Rng& rng) {
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  std::uniform_real_distribution<double> logScale(-2.0, 2.0);
  std::uniform_real_distribution<double> offset(-1e6, 1e6);
  const double s = std::pow(10.0, logScale(rng));
  return Similarity(angle(rng), s, rng() % 2 == 0,
                    Vec2{offset(rng), offset(rng)} * s);
}

/// One interior point of F moved radially so its normalized radius is off
/// by findSimilarity's bound plus or minus 1e-10 (and, every third trial,
/// by 1e-3, which the pre-rejection must catch), seen in random frames.
/// Near the bound the table's radii and findSimilarity's differ by the
/// frame's rounding, so a pre-rejection without a margin rejects some
/// pairs that findSimilarity's own check still accepts.
TEST(RadiiPreRejectTest, RadiusOffByBoundInScaledOffsetFrames) {
  config::Rng rng(17);
  const Configuration f = config::randomPattern(10, rng);
  const geom::Circle c = f.sec();
  std::size_t inner = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (geom::dist(f[i], c.center) < geom::dist(f[inner], c.center)) inner = i;
  }
  int skips = 0, witnesses = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const double off = (trial % 3 == 0)   ? kBound + 1e-10
                       : (trial % 3 == 1) ? kBound - 1e-10
                                          : 1e-3;
    std::vector<Vec2> pts = f.points();
    const Vec2 d = pts[inner] - c.center;
    pts[inner] = c.center + d * ((d.norm() + off * c.radius) / d.norm());
    const Similarity frame = randomFrame(rng);
    for (Vec2& q : pts) q = frame.apply(q);
    const sim::Snapshot snap = snapshotOf(Configuration(pts), f);
    const std::string what = "trial " + std::to_string(trial);
    skips += checkTerminal(snap, what) ? 1 : 0;
    Analysis a(snap);
    if (tableBeyondBound(a) && !radiusCheckRejects(a.P(), a.F())) ++witnesses;
  }
  EXPECT_EQ(skips, 1000) << "the pre-rejection fires on the 1e-3 trials";
  EXPECT_GE(witnesses, 5) << "no case needed the rounding margin";
}

/// r on C(P): leaving, it shrinks the circle, so the table radii are not
/// P - {r}'s. P - {r} is F - {f_k} in a random frame, and the match must
/// still be found.
TEST(RadiiPreRejectTest, RobotOnEnclosingCircleFallsBack) {
  config::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Configuration f = config::randomPattern(9, rng);
    Analysis fa(snapshotOf(f, f));
    ASSERT_TRUE(fa.ok());
    // fWithout(0) is F - {f_k} normalized; P - {r} is it in a random frame,
    // and r sits outside its circle, on the new C(P).
    const Similarity frame = randomFrame(rng);
    std::vector<Vec2> pts;
    for (const Vec2& q : fa.fWithout(0).points()) pts.push_back(frame.apply(q));
    const double dir = std::uniform_real_distribution<double>(0, 6.28)(rng);
    pts.push_back(frame.apply(Vec2{std::cos(dir), std::sin(dir)} * 1.6));
    const sim::Snapshot snap = snapshotOf(Configuration(pts), f);
    Analysis a(snap);
    ASSERT_TRUE(a.ok());
    ASSERT_GE(a.radii().back(), 1.0 - 1e-9);  // r holds C(P)
    const std::size_t r = pts.size() - 1;
    EXPECT_TRUE(a.matchWithout(r, 0, kMatchTol).has_value()) << trial;
    checkWithout(snap, r, "on C(P) trial " + std::to_string(trial));
  }
}

/// r exactly at |r| = 1 - 1e-6 (a frame whose normalization is exact): the
/// interior test is strict, so this falls back too; the answer is
/// findSimilarity's either way.
TEST(RadiiPreRejectTest, RobotAtInteriorThresholdFallsBack) {
  config::Rng rng(29);
  std::vector<Vec2> fp{{1.0, 0.0}, {-1.0, 0.0}};
  const Configuration inner = config::randomConfiguration(7, rng, 0.6, 0.05);
  for (const Vec2& q : inner.points()) fp.push_back(q);
  const Configuration f(fp);
  Analysis fa(snapshotOf(f, f));
  ASSERT_TRUE(fa.ok());
  for (std::size_t k = 0; k < fa.maxViewNonHoldersF().size(); ++k) {
    const std::size_t fk = fa.maxViewNonHoldersF()[k];
    std::vector<Vec2> pts = fp;
    pts[fk] = {1.0 - 1e-6, 0.0};
    const sim::Snapshot snap = snapshotOf(Configuration(pts), f);
    Analysis a(snap);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a.radii()[fk], 1.0 - 1e-6);
    checkWithout(snap, fk, "threshold k=" + std::to_string(k));
    checkTerminal(snap, "threshold terminal k=" + std::to_string(k));
  }
}

/// Two pattern points at the center (a multiplicity of F): radii 0 and 0
/// in both sorted lists. Similar and dissimilar P, every r and k.
TEST(RadiiPreRejectTest, TwoPatternPointsAtCenter) {
  config::Rng rng(31);
  std::vector<Vec2> fp{{0.0, 0.0}, {0.0, 0.0}};
  const Configuration ring = config::randomConfiguration(8, rng, 1.0, 0.1);
  for (const Vec2& q : ring.points()) fp.push_back(q);
  const Configuration f(fp);
  for (int trial = 0; trial < 6; ++trial) {
    const Similarity frame = randomFrame(rng);
    std::vector<Vec2> pts;
    for (const Vec2& q : fp) pts.push_back(frame.apply(q));
    if (trial % 2 == 1) {
      // Split the center pair: no longer similar.
      pts[1] = frame.apply(Vec2{0.05, 0.02});
    }
    const sim::Snapshot snap = snapshotOf(Configuration(pts), f);
    const std::string what = "center pair trial " + std::to_string(trial);
    checkTerminal(snap, what);
    for (std::size_t r = 0; r < pts.size(); ++r) {
      checkWithout(snap, r, what + " r=" + std::to_string(r));
    }
  }
}

}  // namespace
}  // namespace apf::core

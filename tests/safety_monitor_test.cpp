/// The engine's always-on safety monitor (Engine::checkSafety) checked
/// against the slow check it replaced — a full pairwise scan and a full
/// Welzl over the live robots at every position change — and the two
/// psi_DPF collisions it exposed in plain CLI campaigns.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "core/phases.h"
#include "geom/sec.h"
#include "io/patterns.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/shrink.h"

namespace apf::sim {
namespace {

using config::Configuration;
using geom::Vec2;

/// What the slow check saw: the first event of each violation and the
/// largest live SEC radius over the start's.
struct Rescan {
  std::optional<std::uint64_t> collision;
  std::optional<std::uint64_t> secGrowth;
  double maxSecGrowth = 1.0;
};

/// Runs the engine with the slow check in its observer.
RunResult runWithRescan(const Configuration& start, const Configuration& pattern,
                        const Algorithm& algo, const EngineOptions& opts,
                        Rescan& slow) {
  const double startSec = geom::smallestEnclosingCircle(start.span()).radius;
  const bool patternHasMultiplicity = pattern.hasMultiplicity();
  Engine eng(start, pattern, algo, opts);
  eng.setObserver([&](const Engine& e, std::size_t) {
    std::vector<Vec2> live;
    for (std::size_t j = 0; j < e.positions().size(); ++j) {
      if (!e.isCrashed(j)) live.push_back(e.positions()[j]);
    }
    if (live.size() < 2) return;
    const std::uint64_t event = e.metrics().events;
    if (!patternHasMultiplicity && !slow.collision &&
        config::hasCoincidentPair(live, geom::Tol{1e-9, 1e-9})) {
      slow.collision = event;
    }
    const double growth = geom::smallestEnclosingCircle(live).radius / startSec;
    slow.maxSecGrowth = std::max(slow.maxSecGrowth, growth);
    if (growth > SafetyRecord::kSecGrowthBound && !slow.secGrowth) {
      slow.secGrowth = event;
    }
  });
  return eng.run();
}

void expectSameRecord(const Rescan& slow, const SafetyRecord& fast,
                      const std::string& what) {
  ASSERT_EQ(fast.collision.has_value(), slow.collision.has_value()) << what;
  if (slow.collision) {
    EXPECT_EQ(fast.collision->event, *slow.collision) << what;
  }
  ASSERT_EQ(fast.secGrowth.has_value(), slow.secGrowth.has_value()) << what;
  if (slow.secGrowth) {
    EXPECT_EQ(fast.secGrowth->event, *slow.secGrowth) << what;
  }
  const bool collisionFirst =
      slow.collision && (!slow.secGrowth || *slow.collision <= *slow.secGrowth);
  const std::string kind = collisionFirst   ? "collision"
                           : slow.secGrowth ? "sec_growth"
                                            : "";
  EXPECT_EQ(fast.firstKind(), kind) << what;
  EXPECT_EQ(fast.maxSecGrowth, slow.maxSecGrowth) << what;  // bit-equal
}

/// Walks away from the centroid it sees: the enclosing circle keeps
/// growing, so the SEC-growth check fires.
class Flee final : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    Vec2 c{};
    for (const Vec2& q : snap.robots.points()) c += q;
    c = c * (1.0 / static_cast<double>(snap.robots.size()));
    geom::Path p{Vec2{}};
    if (c.norm() > 1e-9) p.lineTo(c * -0.5);
    return Action{p, core::kBaseline};
  }
  std::string name() const override { return "flee"; }
};

/// Walks onto the nearest robot it sees: robots land on each other, so the
/// collision check fires.
class Pounce final : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    double best = -1;
    Vec2 target{};
    for (const Vec2& q : snap.robots.points()) {
      const double d = q.norm();
      if (d > 1e-9 && (best < 0 || d < best)) {
        best = d;
        target = q;
      }
    }
    geom::Path p{Vec2{}};
    if (best > 0) p.lineTo(target);
    return Action{p, core::kBaseline};
  }
  std::string name() const override { return "pounce"; }
};

/// Fuzz-style runs (fuzzSchedules' seeds and aggressions) of `sc` under
/// the slow check; returns how many runs the slow check saw collide and
/// grow.
std::pair<int, int> compareOnSchedules(const Algorithm& algo,
                                       const Scenario& sc, int schedules,
                                       const std::string& label) {
  constexpr double kAggression[] = {0.1, 0.5, 0.9};
  const Configuration start = startFor(sc, sc.baseSeed);
  int collided = 0, grew = 0;
  for (int run = 0; run < schedules; ++run) {
    EngineOptions opts =
        engineOptions(sc, 0x5eedu + 77u * static_cast<std::uint64_t>(run));
    opts.sched.earlyStopProb = kAggression[run % 3];
    Rescan slow;
    const RunResult res = runWithRescan(start, sc.pattern, algo, opts, slow);
    std::string what = label;
    what.append(" run ").append(std::to_string(run));
    expectSameRecord(slow, res.safety, what);
    EXPECT_EQ(res.outcome == Outcome::SafetyViolation,
              res.safety.collision.has_value());
    collided += slow.collision.has_value();
    grew += slow.secGrowth.has_value();
  }
  return {collided, grew};
}

TEST(SafetyMonitorTest, MatchesFullRescanCleanCrashAndNoise) {
  config::Rng rng(41);
  const Configuration start = config::randomConfiguration(8, rng, 4.0, 0.1);
  core::FormPatternAlgorithm form;
  const Flee flee;
  const Pounce pounce;
  struct Case {
    const Algorithm* algo;
    std::uint64_t maxEvents;
  };
  const Case cases[] = {{&form, 20000}, {&flee, 3000}, {&pounce, 3000}};
  int collided = 0, grew = 0;
  for (const Case& c : cases) {
    Scenario clean{.pattern = io::randomPatternByName(8, 5),
                   .startKind = "points",
                   .start = start,
                   .maxEvents = c.maxEvents};
    Scenario crash = clean;
    crash.crashF = 2;
    crash.crashHorizon = 300;
    Scenario noise = clean;
    noise.fault.noiseSigma = 0.01;
    for (const auto& [sc, label] : {std::pair{&clean, "clean"},
                                    std::pair{&crash, "crash"},
                                    std::pair{&noise, "noise"}}) {
      std::string what = c.algo->name();
      what.append(" ").append(label);
      const auto [c1, g1] = compareOnSchedules(*c.algo, *sc, 6, what);
      collided += c1;
      grew += g1;
    }
  }
  // The comparison has teeth: both checks fired in some runs.
  EXPECT_GT(collided, 0);
  EXPECT_GT(grew, 0);
}

TEST(SafetyMonitorTest, CarriedLiveCircleKeepsMaxSecGrowthBits) {
  // The monitor's circle is carried from move to move (geom::SecCarry),
  // and most moves leave its basis alone: at n = 32 it is certified far
  // more often than rebuilt. maxSecGrowth must still equal plain Welzl's,
  // bit for bit, with and without crashes (which shrink the live set).
  config::Rng rng(47);
  const Configuration start = config::randomConfiguration(32, rng, 5.0, 0.1);
  core::FormPatternAlgorithm form;
  const Flee flee;
  for (const Algorithm* algo : {static_cast<const Algorithm*>(&form),
                                static_cast<const Algorithm*>(&flee)}) {
    Scenario clean{.pattern = io::randomPatternByName(32, 9),
                   .startKind = "points",
                   .start = start,
                   .maxEvents = algo == &form ? 30000u : 3000u};
    Scenario crash = clean;
    crash.crashF = 4;
    crash.crashHorizon = 5000;
    std::string what = algo->name();
    (void)compareOnSchedules(*algo, clean, 3, what + " n32 clean");
    (void)compareOnSchedules(*algo, crash, 3, what + " n32 crash");
  }
}

TEST(SafetyMonitorTest, PatternMultiplicitySkipsOnlyTheCollisionCheck) {
  config::Rng rng(43);
  const Scenario sc{.pattern = io::multiplicityPattern(8),
                    .startKind = "points",
                    .start = config::randomConfiguration(8, rng, 4.0, 0.1),
                    .maxEvents = 2000,
                    .multiplicity = true};
  const auto [collided, grew] = compareOnSchedules(Pounce{}, sc, 3, "mult");
  EXPECT_EQ(collided, 0);
  EXPECT_EQ(grew, 0);
  const auto [c2, g2] = compareOnSchedules(Flee{}, sc, 3, "mult flee");
  EXPECT_EQ(c2, 0);
  EXPECT_GT(g2, 0);
}

/// Every robot walks a short step along its own local +x axis: co-located
/// robots with different frames part ways without meeting anyone.
class Drift final : public Algorithm {
 public:
  Action compute(const Snapshot&, sched::RandomSource&) const override {
    geom::Path path{Vec2{}};
    path.lineTo(Vec2{0.01, 0.0});
    return Action{path, core::kBaseline};
  }
  std::string name() const override { return "drift"; }
};

TEST(SafetyMonitorTest, MultiplicityInTheStartIsNotAMoveCollision) {
  // Robots 0 and 1 start on one point. No move made that multiplicity, so
  // the monitor does not flag it (the slow rescan would, at the first move).
  const Configuration start({{0, 0}, {0, 0}, {4, 0}, {0, 3}, {-3, -2}});
  EngineOptions opts;
  opts.seed = 3;
  opts.maxEvents = 400;
  const RunResult res =
      Engine(start, io::starPattern(5), Drift{}, opts).run();
  EXPECT_GT(res.metrics.distance, 0.0);
  EXPECT_FALSE(res.safety.collision.has_value());
  EXPECT_NE(res.outcome, Outcome::SafetyViolation);
}

TEST(SafetyMonitorTest, ManifestCarriesSafetyKeysOnlyWhenAViolationFired) {
  const Configuration start({{0, 0}, {4, 0}, {0, 3}, {-3, -2}});
  EngineOptions opts;
  opts.seed = 5;
  opts.maxEvents = 400;
  const RunResult hit = Engine(start, start, Pounce{}, opts).run();
  ASSERT_TRUE(hit.safety.collision.has_value());
  EXPECT_EQ(hit.outcome, Outcome::SafetyViolation);
  obs::Manifest m;
  appendResult(m, hit);
  const SafetyRecord::Collision& c = *hit.safety.collision;
  ASSERT_NE(m.findEncoded("result.safety.collision.event"), nullptr);
  EXPECT_EQ(*m.findEncoded("result.safety.collision.event"),
            std::to_string(c.event));
  EXPECT_EQ(*m.findEncoded("result.safety.collision.robot"),
            std::to_string(c.robot));
  EXPECT_EQ(*m.findEncoded("result.safety.collision.other"),
            std::to_string(c.other));
  EXPECT_EQ(*m.findEncoded("result.safety.collision.robot_phase"),
            std::to_string(core::kBaseline));
  EXPECT_NE(m.findEncoded("result.safety.max_sec_growth"), nullptr);

  const RunResult quiet = Engine(start, start, Drift{}, opts).run();
  ASSERT_FALSE(quiet.safety.violated());
  obs::Manifest clean;
  appendResult(clean, quiet);
  EXPECT_EQ(clean.toJson().find("result.safety"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The two psi_DPF collisions of `apf_sim --campaign 32 --n 16 --pattern
// random --start symmetric --seed S`: results[6] of S = 4 and results[5] of
// S = 5 (both run seed 10), captured with sim::reproOf into tests/repro/
// with max_events cut to 64 past the collision. In both, two robots whose
// last Compute is dpf-remove land on one point. ROADMAP item 2
// (collision-free psi_DPF) will flip these tests: the replays must then
// come out clean.
// ---------------------------------------------------------------------------

struct KnownCollision {
  const char* file;
  std::uint64_t event;
  std::size_t robot;
  std::size_t other;
};

void expectKnownCollision(const KnownCollision& k) {
  const ReproCase c = loadRepro(std::string(APF_REPRO_DIR) + "/" + k.file);
  EXPECT_EQ(c.violationKind, "collision");
  core::FormPatternAlgorithm algo;
  const ReplayResult r = replay(c, algo);
  EXPECT_TRUE(r.reproduces(c)) << r.violation;
  ASSERT_TRUE(r.run.safety.collision.has_value());
  const SafetyRecord::Collision& got = *r.run.safety.collision;
  EXPECT_EQ(got.event, k.event);
  EXPECT_EQ(got.robot, k.robot);
  EXPECT_EQ(got.other, k.other);
  EXPECT_EQ(got.robotPhase, core::kDpfRemove);
  EXPECT_EQ(got.otherPhase, core::kDpfRemove);
  EXPECT_EQ(r.run.outcome, Outcome::SafetyViolation);

  // The slow rescan sees the same run.
  EngineOptions opts = engineOptions(c, c.baseSeed);
  opts.sched.earlyStopProb = c.earlyStopProb;
  Rescan slow;
  const RunResult again = runWithRescan(c.start, c.pattern, algo, opts, slow);
  expectSameRecord(slow, again.safety, k.file);
}

TEST(SafetyRegressionTest, RandomSymmetricSeed4Run6DpfRemoveCollision) {
  expectKnownCollision({"collision_n16_seed4_run6.repro.json", 775, 13, 2});
}

TEST(SafetyRegressionTest, RandomSymmetricSeed5Run5DpfRemoveCollision) {
  expectKnownCollision({"collision_n16_seed5_run5.repro.json", 612, 14, 3});
}

}  // namespace
}  // namespace apf::sim

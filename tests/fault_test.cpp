/// Tests of the fault-injection subsystem (src/fault, docs/FAULTS.md):
/// crash-stop semantics (a crashed robot freezes exactly on its committed
/// path and stays visible), determinism of the dedicated fault RNG stream,
/// the bit-identity guarantee for empty plans, compute-fault semantics,
/// sensor-fault snapshot mutation, and the fuzzer's fault campaigns.

#include <gtest/gtest.h>

#include <stdexcept>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "core/phases.h"
#include "fault/fault.h"
#include "io/patterns.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/fuzzer.h"

namespace apf::sim {
namespace {

using config::Configuration;
using geom::Vec2;
using Op = sched::ScriptedEvent::Op;

/// Walks straight toward the farthest observed robot, half the distance.
class ChaseFarthest : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    double best = -1;
    Vec2 target{};
    for (const auto& q : snap.robots.points()) {
      if (q.norm() > best) {
        best = q.norm();
        target = q;
      }
    }
    geom::Path p{Vec2{}};
    if (best > 1e-9) p.lineTo(target * 0.5);
    return Action{p, core::kBaseline};
  }
  std::string name() const override { return "chase"; }
};

/// Moves ONTO the farthest observed robot (full distance): a deliberate
/// collision factory for exercising the fuzzer's safety invariants.
class MeetFarthest : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    double best = -1;
    Vec2 target{};
    for (const auto& q : snap.robots.points()) {
      if (q.norm() > best) {
        best = q.norm();
        target = q;
      }
    }
    geom::Path p{Vec2{}};
    if (best > 1e-9) p.lineTo(target);
    return Action{p, core::kBaseline};
  }
  std::string name() const override { return "meet"; }
};

/// Never moves; records the smallest snapshot cardinality it was shown.
class SnapshotProbe : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    minSeen = std::min(minSeen, snap.robots.size());
    maxSeen = std::max(maxSeen, snap.robots.size());
    return Action::stay(core::kBaseline);
  }
  std::string name() const override { return "probe"; }
  mutable std::size_t minSeen = static_cast<std::size_t>(-1);
  mutable std::size_t maxSeen = 0;
};

TEST(FaultTest, ScriptedCrashMidMoveFreezesExactlyOnPath) {
  // Robot 0 commits to the path (0,0) -> (5,0), travels exactly 1.0, and
  // crashes. It must end frozen at (1,0) — on its committed path, not at
  // its goal — and robot 1's LATER snapshot must see it there.
  const Configuration start({{0, 0}, {10, 0}});
  ChaseFarthest algo;
  EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Scripted;
  opts.sched.delta = 0.01;
  opts.randomizeFrames = false;
  opts.maxEvents = 10;
  opts.script = {
      {0, Op::Look, 0},
      {0, Op::Compute, 0},  // path: (0,0) -> (5,0)
      {0, Op::Move, 1.0},   // advance exactly 1.0
      {0, Op::Crash, 0},    // crash-stop: frozen at (1,0) forever
      {0, Op::Look, 0},     // crashed robot: skipped
      {0, Op::Move, 1.0},   // crashed robot: skipped
      {1, Op::Look, 0},     // robot 1 must OBSERVE robot 0 at (1,0)
      {1, Op::Compute, 0},
      {1, Op::Move, 0},
  };
  obs::MemoryRecorder rec;
  opts.recorder = &rec;
  Engine eng(start, start, algo, opts);
  while (eng.metrics().events < opts.script.size() && eng.step()) {
  }
  EXPECT_TRUE(eng.isCrashed(0));
  EXPECT_FALSE(eng.isCrashed(1));
  EXPECT_EQ(eng.crashedCount(), 1u);
  EXPECT_EQ(eng.metrics().crashed, 1u);
  // Frozen exactly mid-path.
  EXPECT_EQ(eng.positions()[0].x, 1.0);
  EXPECT_EQ(eng.positions()[0].y, 0.0);
  // Robot 1 saw the crashed robot at (1,0): farthest point in its local
  // frame (origin (10,0)) was (-9,0) -> target (-4.5,0) local = (5.5,0).
  EXPECT_NEAR(eng.positions()[1].x, 5.5, 1e-9);
  // Exactly one robot_crashed event in the log.
  int crashes = 0;
  for (const auto& ev : rec.events()) {
    if (ev.kind == obs::EventKind::RobotCrashed) ++crashes;
  }
  EXPECT_EQ(crashes, 1);
}

TEST(FaultTest, EmptyPlanIsBitIdenticalAndSoIsAnUnfiredCrash) {
  // Three runs of the full algorithm: (a) no FaultPlan, (b) a plan whose
  // seed differs but injects nothing, (c) a plan with one crash scheduled
  // far beyond the run's length. All three must be bit-identical: the
  // fault stream is separate, and an unfired crash draws nothing.
  core::FormPatternAlgorithm algo;
  config::Rng rng(17);
  const auto start = config::randomConfiguration(6, rng, 5.0, 0.1);
  const auto pattern = io::randomPatternByName(6, 3);

  auto runWith = [&](const fault::FaultPlan& plan) {
    EngineOptions opts;
    opts.seed = 42;
    opts.maxEvents = 300000;
    opts.fault = plan;
    Engine eng(start, pattern, algo, opts);
    return eng.run();
  };

  const RunResult clean = runWith(fault::FaultPlan{});
  fault::FaultPlan reseeded;
  reseeded.seed = 999;  // inert: no injector enabled
  const RunResult b = runWith(reseeded);
  fault::FaultPlan lateCrash;
  lateCrash.crashes.push_back({0, 1u << 30});  // never reached
  const RunResult c = runWith(lateCrash);

  ASSERT_TRUE(clean.success);
  for (const RunResult* r : {&b, &c}) {
    EXPECT_EQ(r->success, clean.success);
    EXPECT_EQ(r->outcome, Outcome::Success);
    EXPECT_EQ(r->metrics.events, clean.metrics.events);
    EXPECT_EQ(r->metrics.cycles, clean.metrics.cycles);
    EXPECT_EQ(r->metrics.randomBits, clean.metrics.randomBits);
    EXPECT_EQ(r->metrics.distance, clean.metrics.distance);  // exact ==
    EXPECT_EQ(r->metrics.faultsInjected, 0u);
    ASSERT_EQ(r->finalPositions.size(), clean.finalPositions.size());
    for (std::size_t i = 0; i < clean.finalPositions.size(); ++i) {
      EXPECT_EQ(r->finalPositions[i].x, clean.finalPositions[i].x);
      EXPECT_EQ(r->finalPositions[i].y, clean.finalPositions[i].y);
    }
  }
}

TEST(FaultTest, SameSeedSamePlanIsDeterministic) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(29);
  const auto start = config::randomConfiguration(8, rng, 5.0, 0.1);
  const auto pattern = io::randomPatternByName(8, 5);

  fault::FaultPlan plan;
  plan.noiseSigma = 0.02;
  plan.omitProb = 0.05;
  plan.truncProb = 0.1;
  plan.seed = 7;
  plan.crashes = fault::planWithRandomCrashes(8, 2, 7, 500).crashes;

  auto runWith = [&]() {
    EngineOptions opts;
    opts.seed = 11;
    opts.maxEvents = 20000;
    opts.fault = plan;
    Engine eng(start, pattern, algo, opts);
    return eng.run();
  };
  const RunResult a = runWith();
  const RunResult b = runWith();
  EXPECT_GT(a.metrics.faultsInjected, 0u);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.faultsInjected, b.metrics.faultsInjected);
  EXPECT_EQ(a.metrics.crashed, b.metrics.crashed);
  EXPECT_EQ(a.metrics.distance, b.metrics.distance);  // exact ==
  EXPECT_EQ(a.outcome, b.outcome);
  ASSERT_EQ(a.finalPositions.size(), b.finalPositions.size());
  for (std::size_t i = 0; i < a.finalPositions.size(); ++i) {
    EXPECT_EQ(a.finalPositions[i].x, b.finalPositions[i].x);
    EXPECT_EQ(a.finalPositions[i].y, b.finalPositions[i].y);
  }
}

TEST(FaultTest, DropFaultNeverMovesAndStalls) {
  // Pattern deliberately NOT similar to the start (any two 3-point
  // configurations with different shape), so a frozen world cannot count
  // as success.
  const Configuration start({{0, 0}, {10, 0}, {0, 1}});
  const Configuration pattern({{0, 0}, {1, 0}, {0.5, 0.866}});
  ChaseFarthest algo;
  EngineOptions opts;
  opts.randomizeFrames = false;
  opts.maxEvents = 500;
  opts.fault.dropProb = 1.0;  // every computed path is discarded
  Engine eng(start, pattern, algo, opts);
  const RunResult res = eng.run();
  EXPECT_EQ(eng.positions()[0], (Vec2{0, 0}));
  EXPECT_EQ(eng.positions()[1], (Vec2{10, 0}));
  EXPECT_EQ(eng.positions()[2], (Vec2{0, 1}));
  EXPECT_GT(res.metrics.faultsInjected, 0u);
  EXPECT_EQ(res.outcome, Outcome::Stalled);
  // A dropped path must NOT count toward quiescence: the robot wanted to
  // move, so the engine may never conclude the run is quiet.
  EXPECT_FALSE(res.terminated);
}

TEST(FaultTest, TruncationStopsRobotExactlyOnItsPath) {
  const Configuration start({{0, 0}, {10, 0}});
  ChaseFarthest algo;
  EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Scripted;
  opts.sched.delta = 0.01;
  opts.randomizeFrames = false;
  opts.maxEvents = 3;
  opts.fault.truncProb = 1.0;  // every path stalls at a random fraction
  opts.fault.seed = 3;
  opts.script = {
      {0, Op::Look, 0},
      {0, Op::Compute, 0},  // path: (0,0) -> (5,0), truncated
      {0, Op::Move, 0},     // "to destination" = to the truncated limit
  };
  Engine eng(start, start, algo, opts);
  while (eng.metrics().events < opts.script.size() && eng.step()) {
  }
  // The robot completed its (truncated) cycle strictly inside its path:
  // still exactly on the segment y = 0, short of the goal.
  EXPECT_EQ(eng.positions()[0].y, 0.0);
  EXPECT_GT(eng.positions()[0].x, 0.0);
  EXPECT_LT(eng.positions()[0].x, 5.0);
  EXPECT_GE(eng.metrics().faultsInjected, 1u);
  EXPECT_EQ(eng.metrics().cycles, 1u);  // the cycle still completes
}

TEST(FaultTest, OmissionShrinksSnapshotsAndNoiseNeverMovesSelf) {
  config::Rng rng(5);
  const auto start = config::randomConfiguration(6, rng, 5.0, 0.5);
  SnapshotProbe probe;
  EngineOptions opts;
  opts.randomizeFrames = false;
  opts.maxEvents = 2000;
  opts.fault.omitProb = 0.5;
  opts.fault.noiseSigma = 0.1;
  opts.fault.seed = 1;
  Engine eng(start, start, probe, opts);
  eng.run();
  EXPECT_GT(eng.metrics().faultsInjected, 0u);
  // Omission visibly shrank at least one snapshot, and never below self.
  EXPECT_LT(probe.minSeen, 6u);
  EXPECT_GE(probe.minSeen, 1u);
  EXPECT_LE(probe.maxSeen, 6u);
  // Sensor faults never touch the world: a stay-only algorithm under pure
  // sensor faults leaves every robot exactly where it started.
  for (std::size_t i = 0; i < start.size(); ++i) {
    EXPECT_EQ(eng.positions()[i].x, start[i].x);
    EXPECT_EQ(eng.positions()[i].y, start[i].y);
  }
}

TEST(FaultTest, FuzzerSurfacesPerRunFailureSeeds) {
  // MeetFarthest collides by construction; every failing run must be
  // surfaced with its replay seed, not just the first one.
  const Configuration start({{0, 0}, {4, 0}, {0, 3}});
  MeetFarthest algo;
  const Scenario sc{.pattern = start,
                    .startKind = "points",
                    .start = start,
                    .maxEvents = 500};
  FuzzOptions fopts;
  fopts.schedules = 6;
  const FuzzResult res = fuzzSchedules(algo, sc, fopts);
  EXPECT_FALSE(res.collisionFree);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_EQ(res.failures.front().violation, res.firstViolation);
  for (const auto& f : res.failures) {
    EXPECT_FALSE(f.violation.empty());
    // Replay coordinates use the fuzzer's published seed formula.
    EXPECT_EQ((f.seed - 0x5eedu) % 77u, 0u);
  }
}

TEST(FaultTest, CrashCampaignTalliesEveryOutcome) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(31);
  const Scenario sc{.pattern = io::randomPatternByName(6, 8),
                    .startKind = "points",
                    .start = config::randomConfiguration(6, rng, 5.0, 0.1),
                    .maxEvents = 60000,
                    .crashF = 1,
                    .crashHorizon = 500};
  FuzzOptions fopts;
  fopts.schedules = 6;
  const FuzzResult res = fuzzSchedules(algo, sc, fopts);
  EXPECT_EQ(res.runs, 6);
  int tallied = 0;
  for (const auto& [outcome, n] : res.outcomes) tallied += n;
  EXPECT_EQ(tallied, res.runs);
  // Live-robot safety held: crash-stop faults must not make survivors
  // collide or blow up the enclosing circle.
  EXPECT_TRUE(res.clean()) << res.firstViolation;
}

TEST(FaultTest, InvalidPlansAreRejected) {
  fault::FaultPlan bad;
  bad.omitProb = 1.5;
  EXPECT_TRUE(fault::validate(bad).has_value());
  const Configuration start({{0, 0}, {1, 0}});
  ChaseFarthest algo;
  EngineOptions opts;
  opts.fault = bad;
  EXPECT_THROW((Engine{start, start, algo, opts}), std::invalid_argument);

  fault::FaultPlan negSigma;
  negSigma.noiseSigma = -0.1;
  EXPECT_TRUE(fault::validate(negSigma).has_value());
  EXPECT_FALSE(fault::validate(fault::FaultPlan{}).has_value());
}

TEST(FaultTest, RandomCrashPlansAreDistinctSortedAndDeterministic) {
  const auto plan = fault::planWithRandomCrashes(10, 3, 99, 1000);
  ASSERT_EQ(plan.crashes.size(), 3u);
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    EXPECT_LT(plan.crashes[i].robot, 10u);
    EXPECT_LT(plan.crashes[i].atEvent, 1000u);
    for (std::size_t j = i + 1; j < plan.crashes.size(); ++j) {
      EXPECT_NE(plan.crashes[i].robot, plan.crashes[j].robot);
      EXPECT_LE(plan.crashes[i].atEvent, plan.crashes[j].atEvent);
    }
  }
  const auto again = fault::planWithRandomCrashes(10, 3, 99, 1000);
  ASSERT_EQ(again.crashes.size(), plan.crashes.size());
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    EXPECT_EQ(again.crashes[i].robot, plan.crashes[i].robot);
    EXPECT_EQ(again.crashes[i].atEvent, plan.crashes[i].atEvent);
  }
}

}  // namespace
}  // namespace apf::sim

/// Allocation-free engine hot path (sim/scratch.h) and the weberPoint()
/// geometry cache. Three properties are pinned down here:
///
///  1. Buffer reuse is observationally invisible: runs that recycle the
///     Scratch workspace produce bit-identical trails and metrics however
///     they are driven (step() vs run(), repeated runs, campaign job
///     counts) on scripted, fuzz-style, and fault-plan workloads.
///  2. The hot loop really is allocation-free in steady state: with the
///     counting hook (src/obs/alloc_hook.cpp) linked into this binary,
///     a warmed engine performs zero heap allocations per event — clean
///     and under a sensor+compute fault plan. The ASan lane runs this
///     same test to prove the hook composes with the sanitizer runtime.
///  3. weberPoint() memoization is invisible, mirroring sec_cache_test:
///     cached values are bit-equal to a fresh Weiszfeld run across
///     mutation, copy, move, and the assign()/releasePoints() recycling
///     path the engine uses.
///
/// Labelled `perf` so the TSan CI lane runs it alongside the campaign
/// tests.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "config/configuration.h"
#include "config/generator.h"
#include "core/form_pattern.h"
#include "fault/fault.h"
#include "geom/weber.h"
#include "io/patterns.h"
#include "obs/alloc.h"
#include "sim/campaign.h"
#include "sim/engine.h"

namespace apf::sim {
namespace {

using config::Configuration;
using geom::Vec2;
using Op = sched::ScriptedEvent::Op;

// ---------------------------------------------------------------------------
// Bit-identity of buffer-reuse runs
// ---------------------------------------------------------------------------

/// Full position trail of a run: every robot coordinate after every
/// position-changing event, flattened. Two runs are behaviorally identical
/// iff their trails and metrics match bit for bit.
struct Trail {
  std::vector<double> positions;
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t randomBits = 0;
  double distance = 0.0;
  bool terminated = false;
  bool success = false;
  int outcome = 0;

  bool operator==(const Trail&) const = default;
};

enum class Workload { Clean, Scripted, FaultPlan };

EngineOptions optionsFor(Workload w) {
  EngineOptions opts;
  opts.seed = 42;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.maxEvents = 20000;
  switch (w) {
    case Workload::Clean:
      break;
    case Workload::Scripted: {
      opts.sched.kind = sched::SchedulerKind::Scripted;
      // One hand-built FSYNC-ish round (all Look, all Compute, all Move),
      // then the ASYNC adversary takes over when the script runs out.
      for (std::size_t i = 0; i < 6; ++i) opts.script.push_back({i, Op::Look, 0});
      for (std::size_t i = 0; i < 6; ++i) {
        opts.script.push_back({i, Op::Compute, 0});
      }
      for (std::size_t i = 0; i < 6; ++i) opts.script.push_back({i, Op::Move, 0});
      break;
    }
    case Workload::FaultPlan: {
      opts.fault = fault::planWithRandomCrashes(6, 1, 9, 500);
      opts.fault.noiseSigma = 0.01;
      opts.fault.omitProb = 0.02;
      opts.fault.multFlipProb = 0.01;
      opts.fault.dropProb = 0.02;
      opts.fault.truncProb = 0.05;
      opts.maxEvents = 4000;  // sensor-faulted runs never go quiescent
      break;
    }
  }
  return opts;
}

Trail runTrail(Workload w) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(21);
  const Configuration start = config::randomConfiguration(6, rng, 4.0, 0.1);
  const Configuration pattern = io::starPattern(6);
  Engine eng(start, pattern, algo, optionsFor(w));
  Trail t;
  eng.setObserver([&t](const Engine& e, std::size_t) {
    for (const Vec2& p : e.positions().points()) {
      t.positions.push_back(p.x);
      t.positions.push_back(p.y);
    }
  });
  const RunResult res = eng.run();
  t.events = res.metrics.events;
  t.cycles = res.metrics.cycles;
  t.randomBits = res.metrics.randomBits;
  t.distance = res.metrics.distance;
  t.terminated = res.terminated;
  t.success = res.success;
  t.outcome = static_cast<int>(res.outcome);
  return t;
}

/// A fresh engine and one whose scratch buffers have been churned by a full
/// prior run must agree exactly: the second runTrail call executes with a
/// heap the first call has already shaped, so any dependence on allocation
/// addresses or stale buffer contents would surface as a diverging trail.
TEST(ScratchTest, RepeatedRunsBitIdenticalAcrossWorkloads) {
  for (Workload w :
       {Workload::Clean, Workload::Scripted, Workload::FaultPlan}) {
    const Trail first = runTrail(w);
    const Trail second = runTrail(w);
    EXPECT_GT(first.events, 0u);
    EXPECT_FALSE(first.positions.empty());
    EXPECT_EQ(first, second) << "workload " << static_cast<int>(w);
  }
}

/// step()-driven and run()-driven execution share the scratch buffers; the
/// reuse pattern differs (step returns to the caller between events), and
/// the observable state must not.
TEST(ScratchTest, StepwiseMatchesRun) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(21);
  const Configuration start = config::randomConfiguration(6, rng, 4.0, 0.1);
  const Configuration pattern = io::starPattern(6);

  Engine stepped(start, pattern, algo, optionsFor(Workload::Clean));
  while (stepped.step()) {
  }
  Engine whole(start, pattern, algo, optionsFor(Workload::Clean));
  const RunResult res = whole.run();

  EXPECT_EQ(stepped.metrics().events, res.metrics.events);
  EXPECT_EQ(stepped.metrics().cycles, res.metrics.cycles);
  EXPECT_EQ(stepped.metrics().randomBits, res.metrics.randomBits);
  EXPECT_EQ(stepped.metrics().distance, res.metrics.distance);
  EXPECT_EQ(stepped.success(), res.success);
  ASSERT_EQ(stepped.positions().size(), res.finalPositions.size());
  for (std::size_t i = 0; i < stepped.positions().size(); ++i) {
    EXPECT_EQ(stepped.positions()[i].x, res.finalPositions[i].x) << i;
    EXPECT_EQ(stepped.positions()[i].y, res.finalPositions[i].y) << i;
  }
}

/// Fault-plan campaign fanned out like the benches: every merged field —
/// including the new geometry-cache counters, which are thread-local and
/// captured per run — must be identical for any APF_JOBS.
TEST(ScratchTest, FaultCampaignIdenticalAcrossJobCounts) {
  core::FormPatternAlgorithm algo;
  std::vector<int> seeds(8);
  for (int s = 0; s < 8; ++s) seeds[s] = s;
  auto worker = [&](int s, std::size_t) {
    config::Rng rng(700 + s);
    const auto start = config::randomConfiguration(6, rng, 4.0, 0.1);
    const auto pattern = io::randomPatternByName(6, 60 + s);
    EngineOptions opts;
    opts.seed = 17 * static_cast<std::uint64_t>(s) + 3;
    opts.sched.kind = sched::SchedulerKind::Async;
    opts.maxEvents = 4000;
    opts.fault = fault::planWithRandomCrashes(6, 1, 100 + s, 500);
    opts.fault.noiseSigma = 0.01;
    opts.fault.dropProb = 0.02;
    Engine eng(start, pattern, algo, opts);
    const RunResult res = eng.run();
    return std::tuple(res.metrics.events, res.metrics.cycles,
                      res.metrics.randomBits, res.metrics.faultsInjected,
                      res.metrics.crashed, res.metrics.secCacheHits,
                      res.metrics.secCacheMisses, res.metrics.weberCacheHits,
                      res.metrics.weberCacheMisses, res.success,
                      static_cast<int>(res.outcome));
  };
  const auto serial = campaignMap(seeds, worker, 1);
  const auto four = campaignMap(seeds, worker, 4);
  const auto hw = campaignMap(seeds, worker, campaignJobs());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);
}

// ---------------------------------------------------------------------------
// Allocation accounting: the hook is live here, and the hot loop is clean
// ---------------------------------------------------------------------------

/// Escapes a pointer from the optimizer so a paired new/delete cannot be
/// elided (C++14 allows eliding unobserved allocations at -O2/-O3).
volatile void* g_allocSink = nullptr;

TEST(AllocHookTest, HookIsLinkedAndCounting) {
  // This binary links src/obs/alloc_hook.cpp, so the strong definitions
  // must have replaced the weak inactive ones from apf_obs.
  ASSERT_TRUE(obs::allocCountingActive());
  const obs::AllocStats before = obs::allocStats();
  void* p = ::operator new(64);
  g_allocSink = p;
  ::operator delete(p);
  const obs::AllocStats after = obs::allocStats();
  EXPECT_GT(after.news, before.news);
  EXPECT_GE(after.bytes - before.bytes, 64u);
}

/// Always moves a short fixed segment: never terminates, touches only the
/// engine machinery (snapshot refresh, scheduling, path execution).
class DriftAlgorithm final : public Algorithm {
 public:
  Action compute(const Snapshot&, sched::RandomSource&) const override {
    geom::Path path{Vec2{0.0, 0.0}};
    path.lineTo(Vec2{0.01, 0.0});
    return Action{path, 1};
  }
  std::string name() const override { return "drift"; }
};

/// Steps a warmed engine and returns the heap allocations performed by the
/// measured window of 20,000 events. Steady state must be exactly zero:
/// this is the repository's allocation gate (docs/PERFORMANCE.md, "Work
/// gate"), exact with no noise floor; the window is long enough for the
/// fault plan to draw every fault kind many times.
std::uint64_t steadyStateAllocs(bool withFaults) {
  const std::size_t n = 16;
  config::Rng rng(106);
  const Configuration start = config::randomConfiguration(n, rng, 5.0, 0.1);
  const Configuration pattern = io::starPattern(n);
  DriftAlgorithm algo;
  EngineOptions opts;
  opts.seed = 1234;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.maxEvents = 1'000'000;
  if (withFaults) {
    opts.fault.noiseSigma = 0.01;
    opts.fault.omitProb = 0.02;
    opts.fault.multFlipProb = 0.01;
    opts.fault.dropProb = 0.02;
    opts.fault.truncProb = 0.05;
    opts.fault.seed = 7;
  }
  Engine eng(start, pattern, algo, opts);
  for (int i = 0; i < 4096; ++i) {
    if (!eng.step()) ADD_FAILURE() << "drift run ended during warmup";
  }
  const obs::AllocStats before = obs::allocStats();
  for (int i = 0; i < 20000; ++i) eng.step();
  const obs::AllocStats after = obs::allocStats();
  return after.news - before.news;
}

TEST(AllocHookTest, EngineSteadyStateAllocFree) {
  EXPECT_EQ(steadyStateAllocs(false), 0u);
}

TEST(AllocHookTest, EngineSteadyStateAllocFreeUnderFaults) {
  EXPECT_EQ(steadyStateAllocs(true), 0u);
}

}  // namespace
}  // namespace apf::sim

// ---------------------------------------------------------------------------
// weberPoint() cache: invisible memoization, mirroring sec_cache_test.cpp
// ---------------------------------------------------------------------------

namespace apf::config {
namespace {

/// Exact (bit-level) comparison: the cache stores the result of the very
/// same geom::weberPoint call, so nothing may differ.
void expectWeberFresh(const Configuration& cfg, const char* what) {
  const Vec2 fresh = geom::weberPoint(cfg.span());
  const Vec2 cached = cfg.weberPoint();
  EXPECT_EQ(cached.x, fresh.x) << what;
  EXPECT_EQ(cached.y, fresh.y) << what;
}

TEST(WeberCacheTest, CachedMatchesFreshOnRandomConfigurations) {
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(200 + trial);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 40);
    const Configuration cfg = randomConfiguration(n, rng, 5.0, 0.05);
    expectWeberFresh(cfg, "first call");
    expectWeberFresh(cfg, "second call (cache hit)");
  }
}

TEST(WeberCacheTest, MutationThroughIndexInvalidates) {
  Rng rng(7);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Vec2 before = cfg.weberPoint();
  cfg[0] = Vec2{100.0, 100.0};  // drags the geometric median outward
  const Vec2 after = cfg.weberPoint();
  EXPECT_GT((after - before).norm(), 1e-6);
  expectWeberFresh(cfg, "after operator[] mutation");
}

TEST(WeberCacheTest, PushBackInvalidates) {
  Rng rng(8);
  Configuration cfg = randomConfiguration(10, rng, 3.0, 0.1);
  const Vec2 before = cfg.weberPoint();
  cfg.push_back(Vec2{-50.0, 40.0});
  const Vec2 after = cfg.weberPoint();
  EXPECT_GT((after - before).norm(), 1e-6);
  expectWeberFresh(cfg, "after push_back");
}

TEST(WeberCacheTest, ConstAccessDoesNotInvalidate) {
  Rng rng(9);
  Configuration cfg = randomConfiguration(12, rng, 3.0, 0.1);
  const Vec2 warm = cfg.weberPoint();
  const Configuration& view = cfg;
  (void)view[3];        // const operator[] must not touch the cache
  (void)view.points();
  const Vec2 again = cfg.weberPoint();
  EXPECT_EQ(warm.x, again.x);
  EXPECT_EQ(warm.y, again.y);
}

TEST(WeberCacheTest, CopyCarriesIndependentCache) {
  Rng rng(10);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Vec2 orig = a.weberPoint();  // warm before copying
  Configuration b = a;
  a[0] = Vec2{200.0, 0.0};  // mutating the source must not disturb the copy
  const Vec2 bWeber = b.weberPoint();
  EXPECT_EQ(bWeber.x, orig.x);
  EXPECT_EQ(bWeber.y, orig.y);
  expectWeberFresh(b, "copy");
  expectWeberFresh(a, "mutated source");
}

TEST(WeberCacheTest, MoveTransfersCacheAndResetsSource) {
  Rng rng(11);
  Configuration a = randomConfiguration(9, rng, 3.0, 0.1);
  const Vec2 orig = a.weberPoint();
  Configuration b = std::move(a);
  const Vec2 moved = b.weberPoint();
  EXPECT_EQ(moved.x, orig.x);
  EXPECT_EQ(moved.y, orig.y);
  // The moved-from object is reusable: its stale cache must be gone.
  a = Configuration();
  a.push_back(Vec2{1.0, 0.0});
  a.push_back(Vec2{-1.0, 0.0});
  expectWeberFresh(a, "reused moved-from object");

  Configuration c = randomConfiguration(7, rng, 3.0, 0.1);
  const Vec2 cOrig = c.weberPoint();
  Configuration d;
  d = std::move(c);  // move-assignment path
  const Vec2 dWeber = d.weberPoint();
  EXPECT_EQ(dWeber.x, cOrig.x);
  EXPECT_EQ(dWeber.y, cOrig.y);
  expectWeberFresh(d, "move-assigned target");
}

/// The engine's snapshot path recycles point storage through
/// releasePoints()/assign(); both must invalidate both caches.
TEST(WeberCacheTest, AssignAndReleasePointsInvalidate) {
  Rng rng(12);
  Configuration cfg = randomConfiguration(8, rng, 3.0, 0.1);
  (void)cfg.sec();
  (void)cfg.weberPoint();  // warm both caches
  std::vector<Vec2> pts = cfg.releasePoints();
  EXPECT_TRUE(cfg.empty());
  for (Vec2& p : pts) p = p * 2.0 + Vec2{5.0, -1.0};
  cfg.assign(std::move(pts));
  expectWeberFresh(cfg, "after releasePoints/assign round-trip");
  const Circle fresh = geom::smallestEnclosingCircle(cfg.span());
  const Circle cached = cfg.sec();
  EXPECT_EQ(cached.center.x, fresh.center.x);
  EXPECT_EQ(cached.center.y, fresh.center.y);
  EXPECT_EQ(cached.radius, fresh.radius);
}

/// The thread-local hit/miss counters behind campaign.geom.* telemetry.
TEST(WeberCacheTest, CacheCountersCount) {
  Rng rng(13);
  const Configuration cfg = randomConfiguration(6, rng, 3.0, 0.1);
  geomCacheCounters() = {};
  (void)cfg.weberPoint();
  (void)cfg.weberPoint();
  (void)cfg.sec();
  (void)cfg.sec();
  (void)cfg.sec();
  const GeomCacheCounters c = geomCacheCounters();
  EXPECT_EQ(c.weberMisses, 1u);
  EXPECT_EQ(c.weberHits, 1u);
  EXPECT_EQ(c.secMisses, 1u);
  EXPECT_EQ(c.secHits, 2u);
}

/// hasCoincidentPair (the allocation-free early-exit scan behind
/// hasMultiplicity) must agree with the grouped()-based definition of
/// hasMultiplicity on every input, duplicates included.
TEST(CoincidentPairTest, MatchesGroupedDefinition) {
  for (int trial = 0; trial < 60; ++trial) {
    Rng rng(300 + trial);
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 20);
    Configuration cfg = randomConfiguration(n, rng, 4.0, 0.05);
    if (trial % 3 == 1) cfg.push_back(cfg[trial % static_cast<int>(n)]);
    if (trial % 3 == 2) {
      // Near-duplicate within tolerance: grouping and the pairwise scan
      // must classify it identically.
      cfg.push_back(cfg[0] + Vec2{1e-12, -1e-12});
    }
    const bool viaGrouped = cfg.grouped().size() < cfg.size();
    EXPECT_EQ(hasCoincidentPair(cfg.span()), viaGrouped) << "trial " << trial;
    EXPECT_EQ(cfg.hasMultiplicity(), viaGrouped) << "trial " << trial;
  }
}

}  // namespace
}  // namespace apf::config

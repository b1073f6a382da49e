/// Failure-repro shrinker (sim/shrink.h, docs/RESILIENCE.md): FaultPlan
/// and ReproCase JSON round-trip bit-exactly (including 64-bit seeds that
/// do not fit a double), replay is deterministic, and the acceptance demo —
/// a seeded safety violation is minimized to a strictly smaller repro whose
/// saved `.repro.json` loads back and still reproduces the same violation
/// kind. Labelled `fault` so the fuzz CI lane runs it (`ctest -L fault`).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "sim/fuzzer.h"
#include "sim/shrink.h"

namespace apf::sim {
namespace {

fault::FaultPlan densePlan() {
  fault::FaultPlan p;
  p.crashes = {{2, 1500}, {4, 40}};
  p.noiseSigma = 0.1;
  p.omitProb = 0.25;
  p.multFlipProb = 0.125;
  p.dropProb = 0.0625;
  p.truncProb = 0.5;
  // Deliberately above 2^53: survives only via raw-token JSON round-trip.
  p.seed = 0x9E3779B97F4A7C15ull;
  return p;
}

TEST(ShrinkTest, FaultPlanJsonRoundTripsEveryField) {
  const fault::FaultPlan p = densePlan();
  const auto doc = obs::parseJson(fault::toJson(p));
  ASSERT_TRUE(doc.has_value());
  const fault::FaultPlan q = fault::planFromJson(*doc);
  ASSERT_EQ(q.crashes.size(), p.crashes.size());
  for (std::size_t i = 0; i < p.crashes.size(); ++i) {
    EXPECT_EQ(q.crashes[i].robot, p.crashes[i].robot);
    EXPECT_EQ(q.crashes[i].atEvent, p.crashes[i].atEvent);
  }
  EXPECT_EQ(q.noiseSigma, p.noiseSigma);
  EXPECT_EQ(q.omitProb, p.omitProb);
  EXPECT_EQ(q.multFlipProb, p.multFlipProb);
  EXPECT_EQ(q.dropProb, p.dropProb);
  EXPECT_EQ(q.truncProb, p.truncProb);
  EXPECT_EQ(q.seed, p.seed);
  // Second encode is byte-identical: the canonical form is a fixpoint.
  EXPECT_EQ(fault::toJson(q), fault::toJson(p));
}

ReproCase denseCase() {
  ReproCase c;
  c.algo = "rsb";
  config::Rng rng(17);
  c.start = config::randomConfiguration(5, rng, 5.0, 0.1);
  c.pattern = io::randomPatternByName(5, 93);
  c.patternLabel = "random";
  c.baseSeed = 0xFFFFFFFFFFFFFFF1ull;  // > 2^53
  c.maxEvents = 12345;
  c.delta = 0.075;
  c.earlyStopProb = 0.9;
  c.multiplicity = true;
  c.commonChirality = true;
  c.sched = sched::SchedulerKind::SSync;
  c.fault = densePlan();
  c.violationKind = "sec_growth";
  return c;
}

TEST(ShrinkTest, ReproCaseJsonRoundTripsBitExact) {
  const ReproCase c = denseCase();
  const ReproCase d = reproFromJson(toJson(c));
  EXPECT_EQ(d.algo, c.algo);
  ASSERT_EQ(d.start.size(), c.start.size());
  for (std::size_t i = 0; i < c.start.size(); ++i) {
    EXPECT_EQ(d.start[i].x, c.start[i].x);
    EXPECT_EQ(d.start[i].y, c.start[i].y);
  }
  ASSERT_EQ(d.pattern.size(), c.pattern.size());
  EXPECT_EQ(d.patternLabel, c.patternLabel);
  EXPECT_EQ(d.startKind, "points");
  EXPECT_EQ(d.baseSeed, c.baseSeed);
  EXPECT_EQ(d.runs, 1u);
  EXPECT_EQ(d.maxEvents, c.maxEvents);
  EXPECT_EQ(d.delta, c.delta);
  EXPECT_EQ(d.earlyStopProb, c.earlyStopProb);
  EXPECT_EQ(d.multiplicity, c.multiplicity);
  EXPECT_EQ(d.commonChirality, c.commonChirality);
  EXPECT_EQ(d.sched, c.sched);
  EXPECT_EQ(d.fault.seed, c.fault.seed);
  EXPECT_TRUE(d.faultSeedSet);
  EXPECT_EQ(d.violationKind, c.violationKind);
  // Bit-exactness collapses to string equality of the canonical encoding.
  EXPECT_EQ(toJson(d), toJson(c));
}

TEST(ShrinkTest, SaveAndLoadReproThroughMissingDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "apf_shrink_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "deep" / "nested" / "case.repro.json").string();
  const ReproCase c = denseCase();
  saveRepro(path, c);  // must create deep/nested/ itself
  const ReproCase d = loadRepro(path);
  EXPECT_EQ(toJson(d), toJson(c));
  std::filesystem::remove_all(dir);
}

TEST(ShrinkTest, LoadReproRejectsWrongSchema) {
  const auto dir = std::filesystem::temp_directory_path() / "apf_shrink_test2";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bad.repro.json").string();
  {
    std::ofstream os(path);
    os << "{\"repro\":\"apf.other.v9\",\"algo\":\"form\"}\n";
  }
  EXPECT_THROW(loadRepro(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

/// The encoding of denseCase() with `from` replaced by `to` (exactly one
/// occurrence).
std::string editedDenseCase(const std::string& from, const std::string& to) {
  std::string text = toJson(denseCase());
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// reproFromJson's error message for `text` ("" when it decodes).
std::string decodeError(const std::string& text) {
  try {
    reproFromJson(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ShrinkTest, ReproDecoderRejectsMalformedCases) {
  EXPECT_EQ(decodeError(toJson(denseCase())), "");
  // A v1 file is refused with a pointer to the fix.
  EXPECT_NE(decodeError(editedDenseCase("apf.repro.v2", "apf.repro.v1"))
                .find("found apf.repro.v1; re-create it"),
            std::string::npos);
  // Unknown keys (the v1 spelling, a campaign spec key) and missing keys.
  EXPECT_NE(decodeError(editedDenseCase("\"multiplicity\":",
                                        "\"multiplicity_detection\":")),
            "");
  EXPECT_NE(decodeError(editedDenseCase("\"algo\":", "\"retries\":2,"
                                                      "\"algo\":")),
            "");
  EXPECT_NE(decodeError(editedDenseCase("\"delta\":0.075,", "")), "");
  EXPECT_NE(decodeError(editedDenseCase("\"early_stop_prob\":0.9,", "")), "");
  // The same holds inside the fault plan.
  EXPECT_NE(decodeError(editedDenseCase("\"drop_prob\":0.0625,", "")), "");
  EXPECT_NE(decodeError(editedDenseCase("\"noise_sigma\":",
                                        "\"noise_sigmaa\":")),
            "");
  EXPECT_NE(decodeError(editedDenseCase("\"at_event\":40",
                                        "\"at_event\":-40")),
            "");
  // n must match the pattern, the start must match n, and every crash
  // victim must be a robot.
  EXPECT_NE(decodeError(editedDenseCase("\"n\":5", "\"n\":6")), "");
  const ReproCase c = denseCase();
  ReproCase shortStart = c;
  shortStart.start = c.start.without(0);
  EXPECT_NE(decodeError(toJson(shortStart)).find("start has 4 points"),
            std::string::npos);
  ReproCase badVictim = c;
  badVictim.fault.crashes.push_back({20, 7});
  EXPECT_NE(decodeError(toJson(badVictim)).find("crash victim 20"),
            std::string::npos);
  // Wrong types are errors, not defaults.
  EXPECT_NE(decodeError(editedDenseCase("\"chirality\":true",
                                        "\"chirality\":1")),
            "");
}

TEST(ShrinkTest, ReproFromFailureCarriesExactReplayCoordinates) {
  config::Rng rng(3);
  Scenario sc{.algo = "form",
              .pattern = io::randomPatternByName(4, 90),
              .startKind = "points",
              .start = config::randomConfiguration(4, rng, 5.0, 0.1),
              .maxEvents = 7777,
              .delta = 0.03,
              .multiplicity = true,
              .crashF = 2,
              .crashHorizon = 300};
  sc.fault.noiseSigma = 0.1;
  FuzzFailure f;
  f.seed = 0xDEADBEEFCAFEF00Dull;
  f.earlyStopProb = 0.9;
  f.violationKind = "collision";
  const ReproCase c = reproFromFailure(sc, f);
  EXPECT_EQ(c.algo, "form");
  EXPECT_EQ(c.baseSeed, f.seed);
  EXPECT_EQ(c.runs, 1u);
  EXPECT_EQ(c.earlyStopProb, f.earlyStopProb);
  EXPECT_EQ(c.maxEvents, sc.maxEvents);
  EXPECT_EQ(c.delta, sc.delta);
  EXPECT_TRUE(c.multiplicity);
  EXPECT_EQ(c.violationKind, "collision");
  // The failing run's concrete plan: its two drawn crashes, pinned.
  const fault::FaultPlan plan = engineOptions(sc, f.seed).fault;
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(fault::toJson(c.fault), fault::toJson(plan));
  EXPECT_EQ(c.crashF, 0);
  EXPECT_TRUE(c.faultSeedSet);
  EXPECT_EQ(engineOptions(c, c.baseSeed).fault.seed, plan.seed);
  EXPECT_EQ(c.start.size(), sc.start.size());
  EXPECT_EQ(c.pattern.size(), sc.pattern.size());
}

TEST(ShrinkTest, CapturedRunWithCrashesAndNoiseReplaysExactly) {
  // The repro of a scenario run with drawn crash victims and sensor noise
  // replays, after a JSON round trip, to the very same run.
  core::FormPatternAlgorithm algo;
  Scenario sc{.pattern = io::randomPatternByName(8, 90),
              .maxEvents = 40000,
              .crashF = 2,
              .crashHorizon = 600};
  sc.fault.noiseSigma = 0.01;
  for (const std::uint64_t seed : {3ull, 4ull}) {
    const EngineOptions eopts = engineOptions(sc, seed);
    ASSERT_EQ(eopts.fault.crashes.size(), 2u);
    const config::Configuration start = startFor(sc, seed);
    const RunResult orig = Engine(start, sc.pattern, algo, eopts).run();
    const ReproCase c = reproFromJson(toJson(
        reproOf(sc, start, seed, eopts.sched.earlyStopProb, eopts.fault)));
    const ReplayResult r = replay(c, algo);
    EXPECT_EQ(r.run.metrics.cycles, orig.metrics.cycles) << seed;
    EXPECT_EQ(r.run.metrics.events, orig.metrics.events) << seed;
    EXPECT_EQ(r.run.metrics.distance, orig.metrics.distance) << seed;
    EXPECT_EQ(r.run.metrics.crashed, orig.metrics.crashed) << seed;
  }
}

TEST(ShrinkTest, ReplayIsDeterministic) {
  core::FormPatternAlgorithm algo;
  ReproCase c;
  config::Rng rng(8);  // apf_sim's start stream for seed 1 (seed + 7)
  c.start = config::randomConfiguration(8, rng, 5.0, 0.1);
  c.pattern = io::randomPatternByName(8, 90);
  c.baseSeed = 1;
  c.maxEvents = 40000;
  c.fault.noiseSigma = 8.0;
  c.fault.seed = 1;
  const ReplayResult a = replay(c, algo);
  const ReplayResult b = replay(c, algo);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.violationKind, b.violationKind);
  EXPECT_EQ(a.violationEvent, b.violationEvent);
  EXPECT_EQ(a.run.metrics.events, b.run.metrics.events);
}

TEST(ShrinkTest, ShrinkLeavesCleanCaseUntouched) {
  core::FormPatternAlgorithm algo;
  ReproCase c;
  config::Rng rng(5);
  c.start = config::randomConfiguration(4, rng, 5.0, 0.1);
  c.pattern = io::randomPatternByName(4, 90);
  c.baseSeed = 3;
  c.maxEvents = 200000;  // fault-free run: terminates well before this
  c.violationKind = "collision";
  const std::string before = toJson(c);
  ShrinkOptions sopts;
  sopts.maxProbes = 50;
  const ShrinkResult r = shrink(c, algo, sopts);
  EXPECT_FALSE(r.initialReproduced);
  EXPECT_EQ(toJson(r.minimized), before);
  EXPECT_EQ(r.accepted, 0);
}

/// Acceptance demo: a seeded safety violation is found, minimized to a
/// strictly smaller repro, and the saved artifact still reproduces the same
/// violation kind after a load round-trip. Extreme snapshot noise (sigma 8
/// on a diameter-10 configuration) reliably defeats the SEC-stability
/// argument — the recipe `apf_sim --algo form -n 8 --noise 8.0 --repro-out`
/// uses the same coordinates (docs/RESILIENCE.md).
TEST(ShrinkTest, ShrinkerMinimizesSeededViolationAndReproReplays) {
  core::FormPatternAlgorithm algo;
  ReproCase found;
  bool haveViolation = false;
  for (std::uint64_t seed = 1; seed <= 6 && !haveViolation; ++seed) {
    ReproCase c;
    config::Rng rng(seed + 7);
    c.start = config::randomConfiguration(8, rng, 5.0, 0.1);
    c.pattern = io::randomPatternByName(8, 90);
    c.baseSeed = seed;
    c.maxEvents = 40000;
    c.earlyStopProb = 0.5;
    c.fault.noiseSigma = 8.0;
    c.fault.seed = seed;
    const ReplayResult probe = replay(c, algo);
    if (probe.violated) {
      c.violationKind = probe.violationKind;  // pin the kind before shrinking
      found = c;
      haveViolation = true;
    }
  }
  ASSERT_TRUE(haveViolation) << "noise 8.0 recipe stopped violating";

  ShrinkOptions sopts;
  sopts.maxPasses = 4;
  sopts.maxProbes = 300;
  const ShrinkResult r = shrink(found, algo, sopts);
  ASSERT_TRUE(r.initialReproduced);
  EXPECT_GT(r.probes, 0);

  // Strictly smaller: fewer robots, weaker knobs, or a tighter event
  // budget (the budget clamp alone already guarantees this).
  const bool smaller = r.minimized.start.size() < found.start.size() ||
                       r.minimized.fault.noiseSigma < found.fault.noiseSigma ||
                       r.minimized.maxEvents < found.maxEvents;
  EXPECT_TRUE(smaller);
  EXPECT_LE(r.minimized.start.size(), found.start.size());
  EXPECT_EQ(r.minimized.start.size(), r.minimized.pattern.size());

  // The minimized case still reproduces the pinned kind...
  const ReplayResult rep = replay(r.minimized, algo);
  EXPECT_TRUE(rep.reproduces(r.minimized));
  EXPECT_EQ(rep.violationKind, found.violationKind);

  // ...and survives the .repro.json round-trip apf_sim --replay consumes.
  const auto dir = std::filesystem::temp_directory_path() / "apf_shrink_demo";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "min.repro.json").string();
  saveRepro(path, r.minimized);
  const ReproCase loaded = loadRepro(path);
  EXPECT_EQ(toJson(loaded), toJson(r.minimized));
  const ReplayResult rep2 = replay(loaded, algo);
  EXPECT_TRUE(rep2.reproduces(loaded));
  EXPECT_EQ(rep2.violationEvent, rep.violationEvent);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace apf::sim

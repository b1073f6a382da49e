/// Fuzz campaigns as tests: many adversarial ASYNC schedules per start,
/// safety invariants checked at every step. These are the repository's
/// systematic counterexample hunts for the paper's ASYNC-safety arguments.

#include <gtest/gtest.h>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "core/scattering.h"
#include "io/patterns.h"
#include "sim/fuzzer.h"

namespace apf::sim {
namespace {

using config::Configuration;

TEST(FuzzerTest, RandomStartManySchedulesSafeAndSuccessful) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(5);
  const Configuration start = config::randomConfiguration(8, rng, 4.0, 0.1);
  const Scenario sc{.pattern = io::starPattern(8),
                    .startKind = "points",
                    .start = start,
                    .maxEvents = 300000};
  FuzzOptions opts;
  opts.schedules = 12;
  const FuzzResult res = fuzzSchedules(algo, sc, opts);
  EXPECT_EQ(res.successes, res.runs) << res.firstViolation;
  EXPECT_TRUE(res.collisionFree) << res.firstViolation;
  EXPECT_TRUE(res.secBounded) << res.firstViolation;
  // Different schedules genuinely explore different intermediate states.
  EXPECT_GT(res.distinctConfigurations, 100u);
}

TEST(FuzzerTest, SymmetricStartElectionSafety) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(7);
  const Configuration start = config::symmetricConfiguration(4, 2, rng);
  const Scenario sc{.pattern = io::randomPatternByName(start.size(), 9),
                    .startKind = "points",
                    .start = start,
                    .maxEvents = 300000};
  FuzzOptions opts;
  opts.schedules = 9;
  const FuzzResult res = fuzzSchedules(algo, sc, opts);
  EXPECT_EQ(res.successes, res.runs) << res.firstViolation;
  EXPECT_TRUE(res.clean()) << res.firstViolation;
}

TEST(FuzzerTest, MultiplicityPatternAllowsOnlyTargetMerges) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(9);
  const Configuration start = config::randomConfiguration(9, rng, 4.0, 0.1);
  const Scenario sc{.pattern = io::multiplicityPattern(9),
                    .startKind = "points",
                    .start = start,
                    .maxEvents = 300000,
                    .multiplicity = true};
  FuzzOptions opts;
  opts.schedules = 6;
  // Target multiplicity: collision checking is disabled for such targets
  // (merging IS the goal); safety = SEC stability + success.
  const FuzzResult res = fuzzSchedules(algo, sc, opts);
  EXPECT_EQ(res.successes, res.runs) << res.firstViolation;
  EXPECT_TRUE(res.secBounded) << res.firstViolation;
}

TEST(FuzzerTest, TinyDeltaAggressiveAdversary) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(11);
  const Configuration start = config::randomConfiguration(7, rng, 4.0, 0.1);
  const Scenario sc{.pattern = io::gridPattern(7),
                    .startKind = "points",
                    .start = start,
                    .maxEvents = 1500000,
                    .delta = 0.01};
  FuzzOptions opts;
  opts.schedules = 6;
  const FuzzResult res = fuzzSchedules(algo, sc, opts);
  EXPECT_EQ(res.successes, res.runs) << res.firstViolation;
  EXPECT_TRUE(res.clean()) << res.firstViolation;
}

}  // namespace
}  // namespace apf::sim

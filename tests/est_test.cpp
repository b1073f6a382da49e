/// Tests of the estimation subsystem (src/est/): interval known-answer
/// values and coverage properties, summary merge/serialization fixed
/// points, sequential stopping-rule semantics, the adaptive driver's
/// thread-count determinism and journal resume. The statistical
/// background is docs/STATISTICS.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "est/adaptive.h"
#include "est/estimators.h"
#include "est/stopping.h"
#include "sched/seed.h"
#include "sim/supervisor.h"

namespace apf {
namespace {

using est::BernoulliSummary;
using est::Interval;
using est::MomentSummary;

// ------------------------------------------------------------ quantiles --

TEST(EstimatorTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(est::normalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(est::normalQuantile(0.995), 2.5758293035489004, 1e-9);
  EXPECT_NEAR(est::normalQuantile(0.5), 0.0, 1e-12);
  // Symmetry: z(p) == -z(1 - p).
  for (double p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(est::normalQuantile(p), -est::normalQuantile(1.0 - p), 1e-10);
  }
  EXPECT_THROW(est::normalQuantile(0.0), std::invalid_argument);
  EXPECT_THROW(est::normalQuantile(1.0), std::invalid_argument);
}

TEST(EstimatorTest, IncompleteBetaIdentities) {
  // I_x(1, 1) = x.
  for (double x : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(est::regularizedIncompleteBeta(1.0, 1.0, x), x, 1e-12);
  }
  // Reflection: I_x(a, b) + I_{1-x}(b, a) = 1.
  EXPECT_NEAR(est::regularizedIncompleteBeta(3.0, 7.0, 0.3) +
                  est::regularizedIncompleteBeta(7.0, 3.0, 0.7),
              1.0, 1e-12);
}

// ------------------------------------------------------------ intervals --

BernoulliSummary bern(std::uint64_t trials, std::uint64_t successes) {
  BernoulliSummary s;
  s.trials = trials;
  s.successes = successes;
  return s;
}

TEST(EstimatorTest, WilsonKnownValues) {
  // 5/10 at 95%: the standard textbook value.
  const Interval w = est::wilson(bern(10, 5), 0.95);
  EXPECT_NEAR(w.lo, 0.2366, 1e-3);
  EXPECT_NEAR(w.hi, 0.7634, 1e-3);
  // Wilson never degenerates at the boundaries.
  const Interval zero = est::wilson(bern(20, 0), 0.95);
  EXPECT_NEAR(zero.lo, 0.0, 1e-12);
  EXPECT_GT(zero.hi, 0.01);
  const Interval full = est::wilson(bern(20, 20), 0.95);
  EXPECT_LT(full.lo, 1.0);
  EXPECT_GT(full.lo, 0.8);
  EXPECT_NEAR(full.hi, 1.0, 1e-12);
  // No trials: vacuous.
  const Interval none = est::wilson(bern(0, 0), 0.95);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
  // The early-stop anchor of the shipped demo: 48/48 at 95% is already
  // inside a 0.05 half-width (apf_estimate stops at 48 of 512).
  EXPECT_LT(est::wilson(bern(48, 48), 0.95).halfWidth(), 0.05);
}

TEST(EstimatorTest, ClopperPearsonKnownValues) {
  // k = 0: upper bound is 1 - (alpha/2)^(1/n).
  const Interval zero = est::clopperPearson(bern(10, 0), 0.95);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_NEAR(zero.hi, 0.30850, 1e-4);
  // Mirror case by symmetry.
  const Interval full = est::clopperPearson(bern(10, 10), 0.95);
  EXPECT_NEAR(full.lo, 0.69150, 1e-4);
  EXPECT_DOUBLE_EQ(full.hi, 1.0);
  // Midpoint, standard value.
  const Interval mid = est::clopperPearson(bern(10, 5), 0.95);
  EXPECT_NEAR(mid.lo, 0.1871, 1e-3);
  EXPECT_NEAR(mid.hi, 0.8129, 1e-3);
  // Exactness costs width: CP is never tighter than Wilson here.
  const Interval w = est::wilson(bern(10, 5), 0.95);
  EXPECT_GE(mid.hi - mid.lo, w.hi - w.lo);
}

TEST(EstimatorTest, IntervalPredicates) {
  const Interval a{0.1, 0.4};
  EXPECT_TRUE(a.contains(0.25));
  EXPECT_FALSE(a.contains(0.45));
  EXPECT_NEAR(a.halfWidth(), 0.15, 1e-12);
}

// ------------------------------------------------------------ summaries --

TEST(SummaryTest, BernoulliMergeMatchesPooledCounts) {
  BernoulliSummary a, b, pooled;
  for (int i = 0; i < 10; ++i) {
    a.add(i % 2 == 0);
    pooled.add(i % 2 == 0);
  }
  for (int i = 0; i < 7; ++i) {
    b.add(i % 3 == 0);
    pooled.add(i % 3 == 0);
  }
  a.merge(b);
  EXPECT_EQ(a.trials, pooled.trials);
  EXPECT_EQ(a.successes, pooled.successes);
}

TEST(SummaryTest, MomentsMatchDirectComputation) {
  const std::vector<double> xs = {3.0, 1.5, 4.25, -2.0, 0.5, 7.75, 3.0};
  MomentSummary s;
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_NEAR(s.mean, mean, 1e-12);
  EXPECT_NEAR(s.variance(), ss / static_cast<double>(xs.size() - 1), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, -2.0);
  EXPECT_DOUBLE_EQ(s.max, 7.75);
}

TEST(SummaryTest, MomentMergeMatchesSequential) {
  MomentSummary left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i - 11.0;
    (i < 40 ? left : right).add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count, all.count);
  EXPECT_NEAR(left.mean, all.mean, 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min, all.min);
  EXPECT_DOUBLE_EQ(left.max, all.max);
  // Merging an empty summary is the identity.
  MomentSummary empty;
  const double before = left.mean;
  left.merge(empty);
  EXPECT_DOUBLE_EQ(left.mean, before);
}

TEST(SummaryTest, JsonRoundTripsAreExact) {
  BernoulliSummary b = bern(123456789012345ull, 987654321ull);
  const BernoulliSummary b2 = BernoulliSummary::fromJson(b.toJson());
  EXPECT_EQ(b2.trials, b.trials);
  EXPECT_EQ(b2.successes, b.successes);

  MomentSummary m;
  m.add(0.1);  // not representable: exercises shortest round-trip doubles
  m.add(-7.3e-11);
  m.add(1e17);
  const MomentSummary m2 = MomentSummary::fromJson(m.toJson());
  EXPECT_EQ(m2.count, m.count);
  EXPECT_EQ(m2.mean, m.mean);  // bit-exact, not just near
  EXPECT_EQ(m2.m2, m.m2);
  EXPECT_EQ(m2.min, m.min);
  EXPECT_EQ(m2.max, m.max);

  est::Sample s;
  s.success = true;
  s.cycles = 17.0;
  s.events = 123.0;
  s.bits = 42;
  const est::Sample s2 = est::Sample::fromJson(s.toJson());
  EXPECT_EQ(s2.success, s.success);
  EXPECT_EQ(s2.cycles, s.cycles);
  EXPECT_EQ(s2.events, s.events);
  EXPECT_EQ(s2.bits, s.bits);

  EXPECT_THROW(BernoulliSummary::fromJson("not json"), std::runtime_error);
  EXPECT_THROW(MomentSummary::fromJson("{\"count\":1}"), std::runtime_error);
  EXPECT_THROW(est::Sample::fromJson("{}"), std::runtime_error);
}

TEST(SummaryTest, EmpiricalBernsteinBounds) {
  // Zero variance: the bound collapses to the range term alone.
  MomentSummary constant;
  for (int i = 0; i < 50; ++i) constant.add(5.0);
  const Interval c = est::empiricalBernstein(constant, 0.95, 10.0);
  EXPECT_TRUE(c.contains(5.0));
  const double delta = 0.05;
  EXPECT_NEAR(c.halfWidth(), 3.0 * 10.0 * std::log(3.0 / delta) / 50.0, 1e-9);
  // More samples tighten the bound.
  MomentSummary small, big;
  for (int i = 0; i < 30; ++i) small.add(static_cast<double>(i % 7));
  for (int i = 0; i < 3000; ++i) big.add(static_cast<double>(i % 7));
  EXPECT_LT(est::empiricalBernstein(big, 0.95).halfWidth(),
            est::empiricalBernstein(small, 0.95).halfWidth());
  // Empty summary degenerates to [0, 0].
  const Interval none = est::empiricalBernstein(MomentSummary{}, 0.95);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 0.0);
}

// ------------------------------------------------------------- stopping --

TEST(StoppingTest, ValidateRejectsNonsense) {
  est::StoppingOptions opts;
  opts.batchSize = 0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = {};
  opts.minSamples = 100;
  opts.maxSamples = 50;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = {};
  opts.confidence = 1.0;
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts = {};
  EXPECT_NO_THROW(opts.validate());
}

TEST(StoppingTest, RuleSemantics) {
  est::StoppingOptions opts;
  opts.batchSize = 16;
  opts.minSamples = 32;
  opts.maxSamples = 512;
  opts.targetHalfWidth = 0.05;

  // Before minSamples nothing but the hard budget can stop the run, even
  // with a degenerate (all-success) summary.
  EXPECT_FALSE(est::evaluateStop(opts, bern(16, 16), 16).has_value());
  // 48/48 is inside the target half-width (see WilsonKnownValues).
  const auto hw = est::evaluateStop(opts, bern(48, 48), 48);
  ASSERT_TRUE(hw.has_value());
  EXPECT_EQ(*hw, est::StopReason::HalfWidth);
  // A 50% rate at 48 samples is nowhere near a 0.05 half-width.
  EXPECT_FALSE(est::evaluateStop(opts, bern(48, 24), 48).has_value());
  // The budget always stops, and wins over everything else.
  const auto cap = est::evaluateStop(opts, bern(512, 256), 512);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(*cap, est::StopReason::MaxSamples);

  // Futility: 0/64 has a Wilson upper bound well under a 0.5 floor.
  opts.targetHalfWidth = 0.0;
  opts.futilityFloor = 0.5;
  const auto fut = est::evaluateStop(opts, bern(64, 0), 64);
  ASSERT_TRUE(fut.has_value());
  EXPECT_EQ(*fut, est::StopReason::Futility);
  // ... but not when the observed rate is at the floor.
  EXPECT_FALSE(est::evaluateStop(opts, bern(64, 32), 64).has_value());

  EXPECT_STREQ(est::stopReasonName(est::StopReason::MaxSamples),
               "max_samples");
  EXPECT_STREQ(est::stopReasonName(est::StopReason::HalfWidth), "half_width");
  EXPECT_STREQ(est::stopReasonName(est::StopReason::Futility), "futility");
}

// ------------------------------------------------------------- adaptive --

/// Synthetic trial: a pure function of the seed, cheap enough to run
/// thousands of times. Success is a fixed function of seed bits, so the
/// stopping point is a pure function of (base seed, options) as the
/// determinism contract requires.
est::Sample syntheticTrial(std::uint64_t seed, std::uint64_t /*index*/) {
  est::Sample s;
  s.success = (seed & 3) != 0;  // ~75% success
  s.cycles = static_cast<double>(seed % 97);
  s.events = static_cast<double>(seed % 1009);
  s.bits = seed % 11;
  return s;
}

TEST(AdaptiveTest, ReportIsByteIdenticalAcrossJobCounts) {
  est::AdaptiveOptions opts;
  opts.baseSeed = 42;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 16;
  opts.stop.maxSamples = 160;
  opts.stop.targetHalfWidth = 0.02;  // never reached: runs to the budget

  opts.jobs = 1;
  const est::ArmEstimate serial =
      est::runAdaptive("synthetic", syntheticTrial, opts);
  opts.jobs = 4;
  const est::ArmEstimate pooled =
      est::runAdaptive("synthetic", syntheticTrial, opts);
  EXPECT_EQ(serial.toJson(), pooled.toJson());
  EXPECT_EQ(serial.samples, 160u);
  EXPECT_EQ(serial.batches, 20u);
  EXPECT_FALSE(serial.converged);
  EXPECT_EQ(serial.stopReason, est::StopReason::MaxSamples);
}

TEST(AdaptiveTest, StopsEarlyWhenPrecisionReached) {
  est::AdaptiveOptions opts;
  opts.baseSeed = 7;
  opts.stop.batchSize = 16;
  opts.stop.minSamples = 32;
  opts.stop.maxSamples = 4096;
  opts.stop.targetHalfWidth = 0.05;
  const est::ArmEstimate arm = est::runAdaptive(
      "always",
      [](std::uint64_t, std::uint64_t) {
        est::Sample s;
        s.success = true;
        return s;
      },
      opts);
  EXPECT_TRUE(arm.converged);
  EXPECT_EQ(arm.stopReason, est::StopReason::HalfWidth);
  EXPECT_LT(arm.samples, 4096u);
  // The stopping point is exactly the first batch boundary >= minSamples
  // where the all-success Wilson half-width is <= 0.05: at 32 it is still
  // ~0.054, at 48 it is ~0.037 — so the rule fires at 48.
  EXPECT_EQ(arm.samples, 48u);
}

TEST(AdaptiveTest, TrialSeedsComeFromTheAuditedDerivation) {
  // The driver must feed trial i exactly sampleSeed(base, i): collect the
  // seeds and compare.
  std::vector<std::uint64_t> seen(24, 0);
  est::AdaptiveOptions opts;
  opts.baseSeed = 99;
  opts.jobs = 1;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 8;
  opts.stop.maxSamples = 24;
  opts.stop.targetHalfWidth = 0.0;
  est::runAdaptive(
      "seeds",
      [&seen](std::uint64_t seed, std::uint64_t index) {
        seen[index] = seed;
        return est::Sample{};
      },
      opts);
  for (std::uint64_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], sched::sampleSeed(99, i)) << "index " << i;
  }
}

TEST(AdaptiveTest, JournalResumeRerunsNothing) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "est_resume.journal")
          .string();
  std::filesystem::remove(path);
  est::AdaptiveOptions opts;
  opts.baseSeed = 5;
  opts.jobs = 2;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 16;
  opts.stop.maxSamples = 64;
  opts.stop.targetHalfWidth = 0.0;  // run the whole budget

  std::string first;
  {
    sim::CampaignJournal journal(path, "{\"k\":\"est_test\"}", false);
    opts.journal = &journal;
    first = est::runAdaptive("journaled", syntheticTrial, opts).toJson();
  }
  // Resume from the complete journal: every sample is already recorded, so
  // the trial must not run even once — and the report is byte-identical.
  std::atomic<int> executed{0};
  {
    sim::CampaignJournal journal(path, "{\"k\":\"est_test\"}", true);
    opts.journal = &journal;
    const est::ArmEstimate again = est::runAdaptive(
        "journaled",
        [&executed](std::uint64_t seed, std::uint64_t index) {
          executed.fetch_add(1);
          return syntheticTrial(seed, index);
        },
        opts);
    EXPECT_EQ(again.toJson(), first);
  }
  EXPECT_EQ(executed.load(), 0);
  std::filesystem::remove(path);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

TEST(AdaptiveTest, JournalCutMidBatchResumesByteIdentical) {
  // Two batches of 8; the journal is cut after 11 of the 16 samples with a
  // torn final line, so batch 1 mixes 3 replayed samples with 5 fresh ones.
  const std::filesystem::path dir(::testing::TempDir());
  const std::string full = (dir / "est_cut_full.journal").string();
  est::AdaptiveOptions opts;
  opts.baseSeed = 17;
  opts.jobs = 1;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 16;
  opts.stop.maxSamples = 16;
  opts.stop.targetHalfWidth = 0.0;
  const std::string key = "{\"k\":\"est_cut\"}";

  std::string reference;
  {
    sim::CampaignJournal journal(full, key, false);
    opts.journal = &journal;
    reference = est::runAdaptive("cut", syntheticTrial, opts).toJson();
  }
  const std::string fullBytes = slurp(full);
  std::istringstream lines(fullBytes);
  std::string line, cut;
  for (int keep = 0; keep < 12 && std::getline(lines, line); ++keep) {
    cut += line + "\n";  // header + samples 0..10
  }
  cut += "{\"i\":11,\"payl";  // torn mid-write

  for (int jobs : {1, 4}) {
    const std::string path =
        (dir / ("est_cut_" + std::to_string(jobs) + ".journal")).string();
    {
      std::ofstream os(path, std::ios::binary);
      os << cut;
    }
    std::atomic<int> executed{0};
    {
      sim::CampaignJournal journal(path, key, true);
      EXPECT_TRUE(journal.recoveredTornLine());
      EXPECT_EQ(journal.completedCount(), 11u);
      opts.journal = &journal;
      opts.jobs = jobs;
      const est::ArmEstimate resumed = est::runAdaptive(
          "cut",
          [&executed](std::uint64_t seed, std::uint64_t index) {
            executed.fetch_add(1);
            return syntheticTrial(seed, index);
          },
          opts);
      EXPECT_EQ(resumed.toJson(), reference) << "jobs=" << jobs;
    }
    EXPECT_EQ(executed.load(), 5) << "jobs=" << jobs;
    EXPECT_EQ(slurp(path), fullBytes) << "jobs=" << jobs;
    std::filesystem::remove(path);
  }
  std::filesystem::remove(full);
}

TEST(AdaptiveTest, ThrowingTrialPropagates) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "est_throw.journal")
          .string();
  est::AdaptiveOptions opts;
  opts.baseSeed = 3;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 16;
  opts.stop.maxSamples = 16;
  auto trial = [](std::uint64_t seed, std::uint64_t index) {
    if (index == 11) throw std::runtime_error("trial 11 exploded");
    return syntheticTrial(seed, index);
  };
  for (bool journaled : {false, true}) {
    for (int jobs : {1, 4}) {
      std::filesystem::remove(path);
      sim::CampaignJournal journal(path, "{\"k\":\"est_throw\"}", false);
      opts.journal = journaled ? &journal : nullptr;
      opts.jobs = jobs;
      try {
        est::runAdaptive("throws", trial, opts);
        ADD_FAILURE() << "runAdaptive returned; jobs=" << jobs;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "trial 11 exploded") << "jobs=" << jobs;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(AdaptiveTest, ManifestCarriesTheArm) {
  est::AdaptiveOptions opts;
  opts.baseSeed = 1;
  opts.stop.batchSize = 8;
  opts.stop.minSamples = 8;
  opts.stop.maxSamples = 16;
  const est::ArmEstimate arm =
      est::runAdaptive("manifested", syntheticTrial, opts);
  obs::Manifest m;
  est::appendManifest(arm, m);
  const auto parsed = obs::parseFlatObject(m.toJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("est.label").asString(), "manifested");
  EXPECT_DOUBLE_EQ(parsed->at("est.samples").asNumber(),
                   static_cast<double>(arm.samples));
  EXPECT_EQ(parsed->at("est.stop_reason").asString(),
            est::stopReasonName(arm.stopReason));
}

// --------------------------------------------------------------- seeding --

TEST(SeedTest, SplitmixReferenceVector) {
  // First output of the public-domain splitmix64 reference for state 0.
  EXPECT_EQ(sched::splitmix64(0), 0xe220a8397b1dcdafull);
}

TEST(SeedTest, SampleSeedFamiliesAreDecorrelated) {
  // Distinct (base, index) pairs give distinct seeds, and consecutive
  // indices share no low-bit structure (every parity pattern appears).
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.push_back(sched::sampleSeed(1, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(sched::sampleSeed(1, 0), sched::sampleSeed(2, 0));
  // Deterministic: same inputs, same seed (compile-time evaluable).
  static_assert(sched::sampleSeed(3, 4) == sched::sampleSeed(3, 4));
}

}  // namespace
}  // namespace apf

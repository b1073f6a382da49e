/// Parallel-campaign determinism: the executor in sim/campaign.h must merge
/// results in strict run-index order so that every aggregate is
/// bit-identical to the serial loop for ANY thread count. These tests run
/// the same campaigns at jobs = 1, 4, and hardware concurrency and compare
/// every field — including full fuzz campaigns with a fault plan active.
/// Labelled `perf` so the TSan CI lane can target them (`ctest -L perf`).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/span.h"
#include "sim/campaign.h"
#include "sim/engine.h"
#include "sim/fuzzer.h"

namespace apf::sim {
namespace {

/// Scoped APF_JOBS override; restores the previous value on destruction.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    const char* prev = std::getenv("APF_JOBS");
    hadPrev_ = prev != nullptr;
    if (hadPrev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("APF_JOBS", value, 1);
    } else {
      ::unsetenv("APF_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (hadPrev_) {
      ::setenv("APF_JOBS", prev_.c_str(), 1);
    } else {
      ::unsetenv("APF_JOBS");
    }
  }

 private:
  bool hadPrev_ = false;
  std::string prev_;
};

TEST(CampaignTest, MergesInStrictIndexOrder) {
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  for (int jobs : {1, 4}) {
    std::size_t expected = 0;
    runCampaign(
        items,
        [](int item, std::size_t idx) {
          EXPECT_EQ(static_cast<std::size_t>(item), idx);
          // Scramble completion order so the mailbox actually has to buffer
          // out-of-order arrivals before merging.
          if (item % 3 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          return item * item;
        },
        [&](std::size_t idx, int&& r) {
          EXPECT_EQ(idx, expected) << "merge out of order at jobs=" << jobs;
          EXPECT_EQ(r, items[idx] * items[idx]);
          ++expected;
        },
        jobs);
    EXPECT_EQ(expected, items.size());
  }
}

TEST(CampaignTest, MapIdenticalAcrossJobCounts) {
  std::vector<int> items(64);
  for (int i = 0; i < 64; ++i) items[i] = 3 * i + 1;
  auto worker = [](int item, std::size_t idx) {
    return item * 1000 + static_cast<int>(idx);
  };
  const auto serial = campaignMap(items, worker, 1);
  const auto four = campaignMap(items, worker, 4);
  const auto hw = campaignMap(items, worker, campaignJobs());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);
}

TEST(CampaignTest, WorkerExceptionPropagates) {
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  for (int jobs : {1, 4}) {
    auto run = [&] {
      campaignMap(
          items,
          [](int item, std::size_t) {
            if (item == 37) throw std::runtime_error("boom");
            return item;
          },
          jobs);
    };
    EXPECT_THROW(run(), std::runtime_error) << "jobs=" << jobs;
  }
}

/// When a worker throws, the campaign cancels, rethrows — and still fills
/// the caller's CampaignStats first, so a crashed campaign's telemetry
/// (jobs, wall time, how far it got) survives into the error report.
TEST(CampaignTest, WorkerExceptionStillFillsStats) {
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;
  for (int jobs : {1, 4}) {
    CampaignStats stats;
    auto run = [&] {
      campaignMap(
          items,
          [](int item, std::size_t) {
            if (item == 37) throw std::runtime_error("boom");
            return item;
          },
          jobs, &stats);
    };
    EXPECT_THROW(run(), std::runtime_error) << "jobs=" << jobs;
    EXPECT_EQ(stats.jobs, jobs);
    // The campaign cancels at item 37: everything merged before the throw
    // is counted, nothing after it ever runs.
    EXPECT_LE(stats.items, 37u);
    EXPECT_GT(stats.wallNanos, 0u);
  }
}

TEST(CampaignTest, JobsResolution) {
  {
    ScopedJobsEnv env(nullptr);
    EXPECT_EQ(campaignJobs(3), 3);  // explicit request wins
    EXPECT_GE(campaignJobs(0), 1);  // hardware fallback is at least 1
  }
  {
    ScopedJobsEnv env("5");
    EXPECT_EQ(campaignJobs(0), 5);
    EXPECT_EQ(campaignJobs(2), 2);  // explicit request still wins
  }
  {
    ScopedJobsEnv env("100000");
    EXPECT_EQ(campaignJobs(0), 512);  // clamped
  }
  {
    ScopedJobsEnv env("nonsense");
    EXPECT_GE(campaignJobs(0), 1);  // unparsable -> hardware fallback
  }
}

/// Garbage in APF_JOBS must not be swallowed silently (a typo'd `l6` used
/// to quietly run a different experiment): the resolver warns on stderr and
/// then falls back to hardware concurrency. Valid values stay quiet.
TEST(CampaignTest, JobsResolutionWarnsOnGarbageEnv) {
  const std::vector<const char*> garbage = {"nonsense", "4x", "0", "-2"};
  for (const char* value : garbage) {
    ScopedJobsEnv env(value);
    testing::internal::CaptureStderr();
    EXPECT_GE(campaignJobs(0), 1);
    const std::string err = testing::internal::GetCapturedStderr();
    const std::string expected =
        std::string("apf: ignoring unparsable APF_JOBS=\"") + value +
        "\" (want an integer >= 1); using hardware concurrency\n";
    EXPECT_EQ(err, expected) << "APF_JOBS=" << value;
  }
  for (const char* value : {"5", "512"}) {
    ScopedJobsEnv env(value);
    testing::internal::CaptureStderr();
    EXPECT_GE(campaignJobs(0), 1);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << value;
  }
  {
    // An explicit request short-circuits the env var entirely: no warning
    // even when the env holds garbage.
    ScopedJobsEnv env("nonsense");
    testing::internal::CaptureStderr();
    EXPECT_EQ(campaignJobs(3), 3);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  }
}

/// Engine runs fanned out like the benches do: per-run aggregates must be
/// identical for any job count.
TEST(CampaignTest, EngineCampaignIdenticalAcrossJobCounts) {
  core::FormPatternAlgorithm algo;
  std::vector<int> seeds(8);
  for (int s = 0; s < 8; ++s) seeds[s] = s;
  auto worker = [&](int s, std::size_t) {
    config::Rng rng(500 + s);
    const auto start = config::randomConfiguration(8, rng, 5.0, 0.1);
    const auto pattern = io::randomPatternByName(8, 40 + s);
    EngineOptions opts;
    opts.seed = 13 * static_cast<std::uint64_t>(s) + 2;
    opts.sched.kind = sched::SchedulerKind::Async;
    Engine eng(start, pattern, algo, opts);
    const RunResult res = eng.run();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, bool>(
        res.metrics.events, res.metrics.cycles, res.metrics.randomBits,
        res.success);
  };
  const auto serial = campaignMap(seeds, worker, 1);
  const auto four = campaignMap(seeds, worker, 4);
  const auto hw = campaignMap(seeds, worker, campaignJobs());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);
}

void expectFuzzEqual(const FuzzResult& a, const FuzzResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.distinctConfigurations, b.distinctConfigurations);
  EXPECT_EQ(a.collisionFree, b.collisionFree);
  EXPECT_EQ(a.secBounded, b.secBounded);
  EXPECT_EQ(a.maxSecGrowthFactor, b.maxSecGrowthFactor);  // bit-exact
  EXPECT_EQ(a.firstViolation, b.firstViolation);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].earlyStopProb, b.failures[i].earlyStopProb);
    EXPECT_EQ(a.failures[i].violation, b.failures[i].violation);
  }
}

TEST(CampaignTest, FuzzResultIdenticalAcrossJobCounts) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(21);
  const Scenario sc{.pattern = io::starPattern(6),
                    .startKind = "points",
                    .start = config::randomConfiguration(6, rng, 4.0, 0.1),
                    .maxEvents = 300000};
  const FuzzResult serial =
      fuzzSchedules(algo, sc, {.schedules = 6, .jobs = 1});
  EXPECT_EQ(serial.successes, serial.runs) << serial.firstViolation;
  for (int jobs : {4, campaignJobs()}) {
    expectFuzzEqual(serial,
                    fuzzSchedules(algo, sc, {.schedules = 6, .jobs = jobs}));
  }
}

/// Telemetry must be passive: requesting CampaignStats and/or recording
/// spans cannot change a single merged bit (ISSUE acceptance: with no span
/// sink attached, campaign outputs are bit-identical to uninstrumented
/// binaries — and with one attached, still identical).
TEST(CampaignTest, StatsAndSpansLeaveMergedResultsBitIdentical) {
  core::FormPatternAlgorithm algo;
  std::vector<int> seeds(8);
  for (int s = 0; s < 8; ++s) seeds[s] = s;
  auto worker = [&](int s, std::size_t) {
    config::Rng rng(500 + s);
    const auto start = config::randomConfiguration(8, rng, 5.0, 0.1);
    const auto pattern = io::randomPatternByName(8, 40 + s);
    EngineOptions opts;
    opts.seed = 13 * static_cast<std::uint64_t>(s) + 2;
    opts.sched.kind = sched::SchedulerKind::Async;
    Engine eng(start, pattern, algo, opts);
    const RunResult res = eng.run();
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, bool>(
        res.metrics.events, res.metrics.cycles, res.metrics.randomBits,
        res.success);
  };
  const auto plain = campaignMap(seeds, worker, 4);
  for (int jobs : {1, 4}) {
    CampaignStats stats;
    const auto withStats = campaignMap(seeds, worker, jobs, &stats);
    EXPECT_EQ(withStats, plain) << "jobs=" << jobs;
    EXPECT_EQ(stats.jobs, jobs);
    EXPECT_EQ(stats.items, seeds.size());
    EXPECT_GT(stats.workerBusyNanos, 0u);
    EXPECT_GT(stats.wallNanos, 0u);
    EXPECT_GE(stats.wallNanos, stats.mergeNanos);
    EXPECT_GE(stats.utilization(), 0.0);
    EXPECT_LE(stats.utilization(), 1.0);
    if (jobs == 1) {
      // Serial path spawns no threads: no idle, no mailbox, no stall.
      EXPECT_EQ(stats.workerIdleNanos, 0u);
      EXPECT_EQ(stats.mailboxHighWater, 0u);
      EXPECT_EQ(stats.pendingHighWater, 0u);
      EXPECT_EQ(stats.mergeStallNanos, 0u);
    } else {
      EXPECT_GE(stats.mailboxHighWater, 1u);
      EXPECT_GE(stats.pendingHighWater, 1u);
    }
    // Spans recording on top of stats must also change nothing.
    obs::SpanCollector collector;
    collector.install();
    CampaignStats tracedStats;
    const auto traced = campaignMap(seeds, worker, jobs, &tracedStats);
    obs::SpanCollector::uninstall();
    EXPECT_EQ(traced, plain) << "jobs=" << jobs;
    EXPECT_EQ(tracedStats.items, seeds.size());
    // The worker body emits engine spans of its own; check only that the
    // campaign-category spans cover both stages of the executor.
    bool sawRun = false, sawMerge = false;
    for (const obs::Span& s : collector.snapshot()) {
      if (std::string_view(s.cat) != "campaign") continue;
      if (std::string_view(s.name) == "run") sawRun = true;
      if (std::string_view(s.name) == "merge") sawMerge = true;
    }
    EXPECT_TRUE(sawRun);
    EXPECT_TRUE(sawMerge);
  }
}

TEST(CampaignTest, FuzzResultIdenticalAcrossJobCountsWithFaultPlan) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(23);
  // Sensor-faulted runs never end by quiescence; keep the budget small so
  // this stays fast under TSan.
  Scenario sc{.pattern = io::randomPatternByName(6, 31),
              .startKind = "points",
              .start = config::randomConfiguration(6, rng, 4.0, 0.1),
              .maxEvents = 4000,
              .crashF = 1,
              .crashHorizon = 500};
  sc.fault.noiseSigma = 0.01;
  const FuzzResult serial =
      fuzzSchedules(algo, sc, {.schedules = 6, .jobs = 1});
  for (int jobs : {4, campaignJobs()}) {
    expectFuzzEqual(serial,
                    fuzzSchedules(algo, sc, {.schedules = 6, .jobs = jobs}));
  }
}

}  // namespace
}  // namespace apf::sim

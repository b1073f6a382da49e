/// Campaign-supervisor determinism (sim/supervisor.h, docs/RESILIENCE.md):
/// the three acceptance proofs — (a) a supervised zero-fault campaign
/// merges bit-identical to the unsupervised executor, (b) a killed
/// journaled campaign resumes and merges bit-identical to an uninterrupted
/// one (including the journal file itself, after torn-tail recovery), and
/// (c) a same-seed retry of a deterministic failure reproduces the
/// identical failure and quarantines immediately — plus the watchdog
/// deadline semantics, the retry-salt policy, supervisor event-log
/// determinism, and the journal's corruption handling. Labelled `perf` so
/// the TSan CI lane covers the pool interactions (`ctest -L perf`).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "sim/campaign.h"
#include "sim/engine.h"
#include "sim/supervisor.h"

namespace apf::sim {
namespace {

/// Deterministic engine run summarized as a flat JSON string, so
/// "bit-identical" is a plain string comparison. A null watchdog exercises
/// the unsupervised engine path; a supervised worker passes
/// Attempt::watchdog through.
std::string engineSummary(std::uint64_t seed, Watchdog* dog,
                          std::uint64_t maxEvents = 300000) {
  config::Rng rng(seed + 7);
  const config::Configuration start =
      config::randomConfiguration(6, rng, 5.0, 0.1);
  const config::Configuration pattern =
      io::randomPatternByName(6, 90 + static_cast<int>(seed));
  core::FormPatternAlgorithm algo;
  EngineOptions opts;
  opts.seed = seed;
  opts.maxEvents = maxEvents;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.watchdog = dog;
  Engine eng(start, pattern, algo, opts);
  const RunResult res = eng.run();
  obs::JsonObjectWriter w;
  w.field("success", res.success);
  w.field("cycles", res.metrics.cycles);
  w.field("events", res.metrics.events);
  w.field("bits", res.metrics.randomBits);
  w.field("distance", res.metrics.distance);
  return w.str();
}

std::vector<std::uint64_t> seedItems(std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = 11 + i;
  return seeds;
}

// ------------------------------------------------- watchdog semantics ---

TEST(SupervisorTest, RetrySaltPolicy) {
  // Attempts 0 and 1 share the base seed (the same-seed determinism
  // proof); later attempts rotate through a fixed, pure sequence.
  EXPECT_EQ(retrySeedSalt(0), 0u);
  EXPECT_EQ(retrySeedSalt(1), 0u);
  EXPECT_NE(retrySeedSalt(2), 0u);
  EXPECT_EQ(retrySeedSalt(2), retrySeedSalt(2));
  EXPECT_NE(retrySeedSalt(2), retrySeedSalt(3));
}

TEST(SupervisorTest, WatchdogCycleBudgetIsExact) {
  Watchdog dog(/*cycleBudget=*/100, /*wallBudgetNanos=*/0);
  for (std::uint64_t c = 0; c < 100; ++c) {
    ASSERT_NO_THROW(dog.poll(c));
  }
  try {
    dog.poll(100);
    FAIL() << "cycle budget did not trip";
  } catch (const WatchdogExpired& e) {
    EXPECT_EQ(e.kind(), FailureKind::TimeoutCycles);
    EXPECT_EQ(e.atCycles(), 100u);
  }
}

TEST(SupervisorTest, WatchdogZeroBudgetsNeverExpire) {
  Watchdog dog(0, 0);
  for (std::uint64_t c = 0; c < 100000; ++c) {
    ASSERT_NO_THROW(dog.poll(c));
  }
}

TEST(SupervisorTest, WatchdogWallBudgetTripsEventually) {
  // A 1 ns budget is over by the time the deadline is re-checked, so the
  // second wall check (poll 2 * kWallCheckInterval) must throw.
  Watchdog dog(0, 1);
  bool expired = false;
  try {
    for (std::uint64_t c = 0; c < 10 * Watchdog::kWallCheckInterval; ++c) {
      dog.poll(c);
    }
  } catch (const WatchdogExpired& e) {
    expired = true;
    EXPECT_EQ(e.kind(), FailureKind::TimeoutWall);
  }
  EXPECT_TRUE(expired);
}

// ------------------------------ acceptance (a): zero-fault bit-identity --

TEST(SupervisorTest, ZeroFaultCampaignBitIdenticalToUnsupervised) {
  const auto seeds = seedItems(8);
  std::vector<std::string> bare;
  runCampaign(
      seeds,
      [](std::uint64_t s, std::size_t) { return engineSummary(s, nullptr); },
      [&](std::size_t, std::string&& r) { bare.push_back(std::move(r)); },
      /*jobs=*/1);

  for (int jobs : {1, 4}) {
    std::vector<std::string> supervised;
    const SupervisorReport report = superviseCampaign(
        0, seeds.size(),
        [&](std::size_t i, const Attempt& att) {
          return engineSummary(seeds[i], att.watchdog);
        },
        [&](std::size_t, std::string&& r) {
          supervised.push_back(std::move(r));
        },
        SupervisorOptions{}, /*journal=*/nullptr, jobs);
    EXPECT_EQ(supervised, bare) << "jobs=" << jobs;
    EXPECT_EQ(report.items, seeds.size());
    EXPECT_EQ(report.completed, seeds.size());
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_TRUE(report.allCompleted());
  }
}

// ----------------------- acceptance (c): same-seed determinism proof -----

TEST(SupervisorTest, SameSeedRetryReproducesIdenticalFailureAndQuarantines) {
  const auto seeds = seedItems(4);
  SupervisorOptions opts;
  opts.maxRetries = 5;  // must NOT be exhausted: determinism short-circuits
  std::vector<std::string> merged;
  const SupervisorReport report = superviseCampaign(
      0, seeds.size(),
      [&](std::size_t i, const Attempt&) -> std::string {
        throw std::runtime_error("boom seed " + std::to_string(seeds[i]));
      },
      [&](std::size_t, std::string&& r) { merged.push_back(std::move(r)); },
      opts, /*journal=*/nullptr, /*jobs=*/4);

  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(report.quarantined, seeds.size());
  EXPECT_EQ(report.exceptions, 2 * seeds.size());
  ASSERT_EQ(report.quarantine.size(), seeds.size());
  for (const QuarantinedItem& q : report.quarantine) {
    EXPECT_TRUE(q.deterministic);
    ASSERT_EQ(q.attempts.size(), 2u) << "same-seed proof needs 2 attempts";
    EXPECT_EQ(q.attempts[0].seedSalt, 0u);
    EXPECT_EQ(q.attempts[1].seedSalt, 0u);
    EXPECT_TRUE(sameFailure(q.attempts[0], q.attempts[1]));
  }
  // Quarantine merges in index order too.
  for (std::size_t i = 0; i < report.quarantine.size(); ++i) {
    EXPECT_EQ(report.quarantine[i].index, i);
  }
}

TEST(SupervisorTest, EngineWatchdogTimeoutIsDeterministic) {
  // The engine polls once per scheduler event, so a cycle budget trips at
  // the exact same event on every attempt — the supervisor proves it via
  // the same-seed retry and quarantines without burning the later salts.
  const auto seeds = seedItems(3);
  SupervisorOptions opts;
  opts.cycleBudget = 50;
  opts.maxRetries = 4;
  std::vector<std::string> merged;
  const SupervisorReport report = superviseCampaign(
      0, seeds.size(),
      [&](std::size_t i, const Attempt& att) {
        return engineSummary(seeds[i], att.watchdog);
      },
      [&](std::size_t, std::string&& r) { merged.push_back(std::move(r)); },
      opts, /*journal=*/nullptr, /*jobs=*/2);

  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(report.quarantined, seeds.size());
  EXPECT_EQ(report.timeoutsCycle, 2 * seeds.size());
  for (const QuarantinedItem& q : report.quarantine) {
    EXPECT_TRUE(q.deterministic);
    ASSERT_EQ(q.attempts.size(), 2u);
    EXPECT_EQ(q.attempts[0].kind, FailureKind::TimeoutCycles);
    EXPECT_EQ(q.attempts[0].atCycles, 50u);
    EXPECT_TRUE(sameFailure(q.attempts[0], q.attempts[1]));
  }
}

// ------------------------------------------- retry policy and events -----

TEST(SupervisorTest, RetrySaltsRotateAfterDifferingFailures) {
  // Failures that differ between attempts 0 and 1 are scheduling-flavored,
  // not deterministic: the supervisor keeps retrying with rotated salts.
  SupervisorOptions opts;
  opts.maxRetries = 2;
  obs::MemoryRecorder recorder;
  opts.recorder = &recorder;
  std::vector<std::uint64_t> salts;
  const SupervisorReport report = superviseCampaign(
      0, 1,
      [](std::size_t, const Attempt& att) -> std::uint64_t {
        if (att.number < 2) {
          throw std::runtime_error("flaky attempt " +
                                   std::to_string(att.number));
        }
        return att.seedSalt;
      },
      [&](std::size_t, std::uint64_t&& salt) { salts.push_back(salt); },
      opts, /*journal=*/nullptr, /*jobs=*/1);

  ASSERT_EQ(salts.size(), 1u);
  EXPECT_EQ(salts[0], retrySeedSalt(2));
  EXPECT_NE(salts[0], 0u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.quarantined, 0u);

  // Event stream: one run_retried per failed attempt, carrying the salt of
  // the attempt being started.
  std::vector<std::uint64_t> retrySalts;
  for (const obs::Event& e : recorder.events()) {
    if (e.kind == obs::EventKind::RunRetried) {
      retrySalts.push_back(e.bitsUsed);
    }
  }
  ASSERT_EQ(retrySalts.size(), 2u);
  EXPECT_EQ(retrySalts[0], retrySeedSalt(1));
  EXPECT_EQ(retrySalts[1], retrySeedSalt(2));
}

TEST(SupervisorTest, SupervisorEventLogDeterministicAcrossJobCounts) {
  // Events are emitted on the merge thread in merge order, so the log is
  // the same for any pool size.
  const auto seeds = seedItems(8);
  auto runWith = [&](int jobs) {
    obs::MemoryRecorder recorder;
    SupervisorOptions opts;
    opts.maxRetries = 2;
    opts.recorder = &recorder;
    superviseCampaign(
        0, seeds.size(),
        [&](std::size_t index, const Attempt& att) -> std::string {
          if (index % 2 == 1 && att.number == 0) {
            throw std::runtime_error("transient attempt 0");
          }
          return "ok " + std::to_string(seeds[index]);
        },
        [](std::size_t, std::string&&) {}, opts, /*journal=*/nullptr, jobs);
    std::vector<std::string> lines;
    for (const obs::Event& e : recorder.events()) {
      lines.push_back(obs::toJsonLine(e));
    }
    return lines;
  };
  const auto serial = runWith(1);
  const auto pooled = runWith(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
}

TEST(SupervisorTest, OutOfOrderMailboxBuffersWhileIndexZeroRetries) {
  // Index 0 fails once and re-runs while later items finish: the merge
  // thread must buffer them (pending high water) and still merge in strict
  // index order, counting the retry exactly once.
  const auto seeds = seedItems(12);
  SupervisorOptions opts;
  opts.maxRetries = 2;
  CampaignStats stats;
  std::size_t expected = 0;
  const SupervisorReport report = superviseCampaign(
      0, seeds.size(),
      [&](std::size_t index, const Attempt& att) -> std::string {
        if (index == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          if (att.number == 0) {
            throw std::runtime_error("slow transient");
          }
        }
        return "r" + std::to_string(seeds[index]);
      },
      [&](std::size_t index, std::string&&) {
        EXPECT_EQ(index, expected) << "merge out of order";
        ++expected;
      },
      opts, /*journal=*/nullptr, /*jobs=*/4, &stats);

  EXPECT_EQ(expected, seeds.size());
  EXPECT_EQ(report.completed, seeds.size());
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(stats.jobs, 4);
  EXPECT_GE(stats.pendingHighWater, 1u);
}

// --------------------- acceptance (b): journaled kill-and-resume ---------

class JournalDir : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs these tests as parallel
    // processes, and a shared directory let one test's SetUp/TearDown
    // delete another's journal mid-run.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::temp_directory_path() /
           ("apf_supervisor_test_" + test);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  static std::string slurp(const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
};

TEST_F(JournalDir, KillAndResumeMergesAndConvergesBitIdentical) {
  const auto seeds = seedItems(16);
  const std::string key = "journal-test-v1";
  auto worker = [&](std::size_t i, const Attempt& att) {
    return "payload " + std::to_string(seeds[i] ^ att.seedSalt);
  };

  // Uninterrupted reference campaign.
  std::vector<std::string> reference;
  {
    CampaignJournal journal(path("full.journal"), key, /*resume=*/false);
    superviseCampaign(
        0, seeds.size(), worker,
        [&](std::size_t, std::string&& r) {
          reference.push_back(std::move(r));
        },
        SupervisorOptions{}, &journal, /*jobs=*/1);
  }
  const std::string fullBytes = slurp(path("full.journal"));
  ASSERT_EQ(reference.size(), seeds.size());

  for (int jobs : {1, 4}) {
    // Simulate a SIGKILL after 5 completed entries, mid-write of the 6th:
    // keep header + 5 lines, then a torn (unterminated) tail.
    std::istringstream full(fullBytes);
    std::string line, partial;
    for (int keep = 0; keep < 6 && std::getline(full, line); ++keep) {
      partial += line + "\n";
    }
    partial += "{\"i\":5,\"payl";  // torn mid-write
    const std::string killed = path("killed" + std::to_string(jobs));
    {
      std::ofstream os(killed, std::ios::binary);
      os << partial;
    }

    std::vector<std::string> resumed;
    SupervisorReport report;
    {
      CampaignJournal journal(killed, key, /*resume=*/true);
      EXPECT_TRUE(journal.recoveredTornLine());
      EXPECT_EQ(journal.completedCount(), 5u);
      report = superviseCampaign(
          0, seeds.size(), worker,
          [&](std::size_t, std::string&& r) {
            resumed.push_back(std::move(r));
          },
          SupervisorOptions{}, &journal, jobs);
    }
    // Merged output AND the journal file itself converge bit-identical.
    EXPECT_EQ(resumed, reference) << "jobs=" << jobs;
    EXPECT_EQ(slurp(killed), fullBytes) << "jobs=" << jobs;
    EXPECT_EQ(report.replayed, 5u);
    EXPECT_EQ(report.completed, seeds.size() - 5u);
  }
}

TEST_F(JournalDir, GlobalRangeReplaysJournaledRunsInIndexOrder) {
  // A slice [4, 10) of a larger campaign whose journal already holds runs
  // 5 and 7: only the other four execute, merge still sees 4..9 in order,
  // and the journal gains exactly the fresh runs, under global indices.
  for (int jobs : {1, 4}) {
    const std::string file = path("slice" + std::to_string(jobs));
    {
      CampaignJournal journal(file, "k", /*resume=*/false);
      journal.append(5, "journaled 5");
      journal.append(7, "journaled 7");
    }
    CampaignJournal journal(file, "k", /*resume=*/true);
    std::atomic<int> executed{0};
    std::vector<std::size_t> order;
    std::vector<std::string> merged;
    const SupervisorReport report = superviseCampaign(
        4, 10,
        [&](std::size_t i, const Attempt&) {
          executed.fetch_add(1);
          return "fresh " + std::to_string(i);
        },
        [&](std::size_t i, std::string&& r) {
          order.push_back(i);
          merged.push_back(std::move(r));
        },
        SupervisorOptions{}, &journal, jobs);
    EXPECT_EQ(order, (std::vector<std::size_t>{4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(merged, (std::vector<std::string>{"fresh 4", "journaled 5",
                                                "fresh 6", "journaled 7",
                                                "fresh 8", "fresh 9"}));
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(report.items, 6u);
    EXPECT_EQ(report.replayed, 2u);
    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(journal.completedCount(), 6u);
    ASSERT_NE(journal.payload(9), nullptr);
    EXPECT_EQ(*journal.payload(9), "fresh 9");
    EXPECT_FALSE(journal.has(3));
    EXPECT_FALSE(journal.has(10));
  }
}

TEST_F(JournalDir, JournalNeedsStringResults) {
  CampaignJournal journal(path("j"), "k", /*resume=*/false);
  EXPECT_THROW(superviseCampaign(
                   0, 2, [](std::size_t i, const Attempt&) { return i; },
                   [](std::size_t, std::size_t&&) {}, SupervisorOptions{},
                   &journal),
               std::invalid_argument);
}

TEST_F(JournalDir, ResumeWithNoJournalFileStartsFresh) {
  CampaignJournal journal(path("fresh.journal"), "k", /*resume=*/true);
  EXPECT_EQ(journal.completedCount(), 0u);
  EXPECT_FALSE(journal.recoveredTornLine());
  journal.append(0, "x");
  EXPECT_TRUE(journal.has(0));
  ASSERT_NE(journal.payload(0), nullptr);
  EXPECT_EQ(*journal.payload(0), "x");
}

TEST_F(JournalDir, FreshOpenTruncatesExistingJournal) {
  {
    CampaignJournal journal(path("j"), "k", /*resume=*/false);
    journal.append(0, "old");
  }
  CampaignJournal journal(path("j"), "k", /*resume=*/false);
  EXPECT_EQ(journal.completedCount(), 0u);
}

TEST_F(JournalDir, ConfigMismatchRefusesToMerge) {
  {
    CampaignJournal journal(path("j"), "config A", /*resume=*/false);
    journal.append(0, "x");
  }
  EXPECT_THROW(CampaignJournal(path("j"), "config B", /*resume=*/true),
               std::runtime_error);
}

TEST_F(JournalDir, MidFileCorruptionThrowsInsteadOfGuessing) {
  {
    CampaignJournal journal(path("j"), "k", /*resume=*/false);
    journal.append(0, "x");
    journal.append(1, "y");
  }
  // Corrupt the MIDDLE entry (complete line, bad JSON): that is not a torn
  // tail, it is real corruption, and resume must refuse.
  std::string bytes = slurp(path("j"));
  const std::size_t first = bytes.find("{\"i\":0");
  ASSERT_NE(first, std::string::npos);
  bytes[first] = '#';
  {
    std::ofstream os(path("j"), std::ios::binary);
    os << bytes;
  }
  EXPECT_THROW(CampaignJournal(path("j"), "k", /*resume=*/true),
               std::runtime_error);
}

// ------------------------------------------------- report plumbing ------

TEST(SupervisorTest, ReportAbsorbSumsAndToJsonRoundTrips) {
  SupervisorReport a;
  a.items = 4;
  a.completed = 3;
  a.retries = 2;
  a.quarantined = 1;
  a.timeoutsCycle = 2;
  QuarantinedItem q;
  q.index = 3;
  q.deterministic = true;
  q.attempts.push_back(
      {FailureKind::TimeoutCycles, 0, 0, 500, "watchdog: cycle budget"});
  a.quarantine.push_back(q);

  SupervisorReport b;
  b.items = 2;
  b.completed = 2;
  b.replayed = 1;
  b.exceptions = 4;
  b.absorb(a);
  EXPECT_EQ(b.items, 6u);
  EXPECT_EQ(b.completed, 5u);
  EXPECT_EQ(b.replayed, 1u);
  EXPECT_EQ(b.retries, 2u);
  EXPECT_EQ(b.quarantined, 1u);
  EXPECT_EQ(b.timeoutsCycle, 2u);
  EXPECT_EQ(b.exceptions, 4u);
  ASSERT_EQ(b.quarantine.size(), 1u);
  EXPECT_FALSE(b.allCompleted());

  const auto doc = obs::parseJson(b.toJson());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, obs::JsonNode::Kind::Object);
  EXPECT_EQ(doc->find("report")->asString(), "apf.supervisor.v1");
  EXPECT_EQ(doc->find("items")->asNumber(), 6.0);
  const obs::JsonNode* quarantine = doc->find("quarantine");
  ASSERT_NE(quarantine, nullptr);
  ASSERT_EQ(quarantine->items.size(), 1u);
  const obs::JsonNode& item = quarantine->items[0];
  EXPECT_EQ(item.find("index")->asNumber(), 3.0);
  EXPECT_TRUE(item.find("deterministic")->asBool(false));
  ASSERT_EQ(item.find("attempts")->items.size(), 1u);
  EXPECT_EQ(item.find("attempts")->items[0].find("kind")->asString(),
            "timeout_cycles");
}

TEST(SupervisorTest, ManifestKeysComplete) {
  SupervisorOptions opts;
  opts.cycleBudget = 123;
  opts.maxRetries = 3;
  SupervisorReport report;
  report.items = 9;
  obs::Manifest m;
  appendManifest(opts, report, m);
  for (const char* key :
       {"supervisor.cycle_budget", "supervisor.wall_budget_nanos",
        "supervisor.max_retries", "supervisor.items", "supervisor.completed",
        "supervisor.replayed", "supervisor.retries",
        "supervisor.quarantined", "supervisor.timeouts_cycle",
        "supervisor.timeouts_wall", "supervisor.exceptions"}) {
    EXPECT_NE(m.findEncoded(key), nullptr) << key;
  }
  EXPECT_EQ(*m.findEncoded("supervisor.cycle_budget"), "123");
  EXPECT_EQ(*m.findEncoded("supervisor.items"), "9");
}

}  // namespace
}  // namespace apf::sim

/// \file shard_test.cpp
/// The apf.shard.v1 journal key and the sharded-execution determinism
/// guarantees (src/sim/shard.h):
///
///  * Every ShardSpec field reaches the wire losslessly, and reading the
///    wire back then re-encoding is a byte-level fixed point — the key a
///    journal written by an earlier build carries must stay reproducible.
///  * Changing any single ShardSpec field changes shardConfigKey — the
///    property the journal's cross-campaign refusal relies on.
///  * shardRange is a contiguous, balanced, exact partition of [0, runs).
///  * A run's payload depends only on (spec, global index, attempt salt).
///  * Merging shard journals yields a file byte-identical to the journal
///    of a single-process run — on scripted (fixed points), fuzz (random
///    starts), and fault-plan campaigns, serial and on a thread pool —
///    and resuming a partially-journaled shard converges to the same
///    bytes.
///  * Journals of a different campaign, and paths that do not exist,
///    refuse to merge.
///
/// apf_sim's --shard/--merge flags and the journal lock are exercised end
/// to end by tests/shard_cli_test.sh and tools/kill_resume_check.sh; these
/// tests pin the in-process layers those drills build on.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "sim/shard.h"
#include "sim/shrink.h"
#include "sim/supervisor.h"

namespace apf::sim {
namespace {

std::string readAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// "scripted" workload: every run starts from the same fixed points.
ShardSpec scriptedSpec() {
  ShardSpec s;
  s.algo = "form";
  s.n = 6;
  s.patternLabel = "star";
  s.pattern = io::starPattern(6);
  s.startKind = "points";
  config::Rng rng(77);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);
  s.baseSeed = 11;
  s.runs = 8;
  s.maxEvents = 1500;
  return s;
}

/// "fuzz" workload: a fresh random start per run, derived from the
/// effective seed.
ShardSpec fuzzSpec() {
  ShardSpec s;
  s.algo = "form";
  s.n = 6;
  s.patternLabel = "star";
  s.pattern = io::starPattern(6);
  s.startKind = "random";
  s.baseSeed = 23;
  s.runs = 8;
  s.maxEvents = 1500;
  return s;
}

/// "fault-plan" workload: crash-stop victims re-drawn per run plus sensor
/// noise and truncation.
ShardSpec faultSpec() {
  ShardSpec s = fuzzSpec();
  s.baseSeed = 31;
  s.crashF = 1;
  s.crashHorizon = 500;
  s.fault.noiseSigma = 0.02;
  s.fault.truncProb = 0.1;
  return s;
}

// ------------------------------------------------------------------ wire --

/// Reads an apf.shard.v1 line back into a ShardSpec with the generic JSON
/// parser. The library keeps only the encoder (the key is compared, never
/// decoded); this reader exists so the tests can prove the encoding loses
/// nothing.
ShardSpec specFromWire(const std::string& wire) {
  const auto doc = obs::parseJson(wire);
  EXPECT_TRUE(doc && doc->kind == obs::JsonNode::Kind::Object) << wire;
  if (!doc) return {};
  const auto at = [&](const char* key) -> const obs::JsonNode& {
    static const obs::JsonNode missing;
    const obs::JsonNode* v = doc->find(key);
    EXPECT_NE(v, nullptr) << "wire lacks \"" << key << "\"";
    return v != nullptr ? *v : missing;
  };
  EXPECT_EQ(at("shard").asString(), ShardSpec::kSchema);
  ShardSpec s;
  s.algo = at("algo").asString();
  s.n = static_cast<std::size_t>(at("n").asU64());
  s.patternLabel = at("pattern_label").asString();
  s.pattern = pointsFromJson(at("pattern"), "pattern");
  s.startKind = at("start_kind").asString();
  if (const obs::JsonNode* v = doc->find("start")) {
    s.start = pointsFromJson(*v, "start");
  }
  const auto kind = sched::schedulerFromName(at("sched").asString());
  EXPECT_TRUE(kind.has_value());
  if (kind) s.sched = *kind;
  s.baseSeed = at("base_seed").asU64();
  s.runs = at("runs").asU64();
  s.maxEvents = at("max_events").asU64();
  s.delta = at("delta").asNumber();
  s.multiplicity = at("multiplicity").asBool();
  s.commonChirality = at("chirality").asBool();
  s.crashF = static_cast<int>(at("crash_f").asNumber());
  s.crashHorizon = at("crash_horizon").asU64();
  s.fault = fault::planFromJson(at("fault"));
  s.faultSeedSet = at("fault_seed_set").asBool();
  s.watchdogEvents = at("watchdog_events").asU64();
  s.watchdogMs = at("watchdog_ms").asU64();
  s.retries = static_cast<int>(at("retries").asNumber());
  return s;
}

TEST(ShardSpecTest, RoundTripPreservesEveryField) {
  ShardSpec s = faultSpec();
  s.startKind = "points";
  config::Rng rng(5);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);
  s.sched = sched::SchedulerKind::SSync;
  s.delta = 0.123456789012345;
  s.multiplicity = true;
  s.commonChirality = true;
  s.faultSeedSet = true;
  s.fault.seed = 99;
  s.watchdogEvents = 50000;
  s.watchdogMs = 1234;
  s.retries = 5;

  const ShardSpec d = specFromWire(toJson(s));
  EXPECT_EQ(d.algo, s.algo);
  EXPECT_EQ(d.n, s.n);
  EXPECT_EQ(d.patternLabel, s.patternLabel);
  ASSERT_EQ(d.pattern.size(), s.pattern.size());
  for (std::size_t i = 0; i < s.pattern.size(); ++i) {
    EXPECT_EQ(d.pattern[i].x, s.pattern[i].x) << "pattern point " << i;
    EXPECT_EQ(d.pattern[i].y, s.pattern[i].y) << "pattern point " << i;
  }
  EXPECT_EQ(d.startKind, s.startKind);
  ASSERT_EQ(d.start.size(), s.start.size());
  for (std::size_t i = 0; i < s.start.size(); ++i) {
    EXPECT_EQ(d.start[i].x, s.start[i].x) << "start point " << i;
    EXPECT_EQ(d.start[i].y, s.start[i].y) << "start point " << i;
  }
  EXPECT_EQ(d.sched, s.sched);
  EXPECT_EQ(d.baseSeed, s.baseSeed);
  EXPECT_EQ(d.runs, s.runs);
  EXPECT_EQ(d.maxEvents, s.maxEvents);
  EXPECT_EQ(d.delta, s.delta);
  EXPECT_EQ(d.multiplicity, s.multiplicity);
  EXPECT_EQ(d.commonChirality, s.commonChirality);
  EXPECT_EQ(d.crashF, s.crashF);
  EXPECT_EQ(d.crashHorizon, s.crashHorizon);
  EXPECT_EQ(d.fault.seed, s.fault.seed);
  EXPECT_EQ(d.fault.noiseSigma, s.fault.noiseSigma);
  EXPECT_EQ(d.fault.truncProb, s.fault.truncProb);
  EXPECT_EQ(d.faultSeedSet, s.faultSeedSet);
  EXPECT_EQ(d.watchdogEvents, s.watchdogEvents);
  EXPECT_EQ(d.watchdogMs, s.watchdogMs);
  EXPECT_EQ(d.retries, s.retries);
}

TEST(ShardSpecTest, EncodingIsAFixedPointProperty) {
  // shardConfigKey IS toJson, so read->encode must reproduce the exact
  // bytes for ANY spec — sweep a family of field combinations, including
  // doubles that need shortest-round-trip formatting and seeds above 2^53.
  for (std::uint64_t i = 0; i < 32; ++i) {
    ShardSpec s;
    s.algo = (i % 2) != 0u ? "rsb" : "form";
    s.n = 4 + (i % 5);
    s.pattern = io::starPattern(s.n);
    s.startKind = (i % 3) == 0 ? "points" : ((i % 3) == 1 ? "random"
                                                          : "symmetric");
    if (s.startKind == "points") {
      config::Rng rng(100 + i);
      s.start = config::randomConfiguration(s.n, rng, 5.0, 0.1);
    }
    s.baseSeed = i * 0x9E3779B97F4A7C15ull + 1;
    s.runs = 1 + i;
    s.delta = 0.05 + static_cast<double>(i) / 3.0;
    s.multiplicity = (i % 2) != 0u;
    s.crashF = static_cast<int>(i % 2);
    s.fault.noiseSigma = static_cast<double>(i) / 7.0;
    s.faultSeedSet = (i % 4) == 0;
    s.fault.seed = i;
    const std::string j1 = toJson(s);
    const std::string j2 = toJson(specFromWire(j1));
    EXPECT_EQ(j1, j2) << "spec " << i << " is not a re-encoding fixed point";
    EXPECT_EQ(shardConfigKey(s), j1);
  }
}

TEST(ShardSpecTest, EveryFieldChangesTheConfigKey) {
  // A journal refuses to resume or merge under a different config key, so
  // two specs that run different experiments must never share one. Each
  // mutation below changes exactly one field of a "points" spec (the only
  // kind whose start is authoritative).
  using Mutation = void (*)(ShardSpec&);
  const Mutation mutations[] = {
      [](ShardSpec& s) { s.algo = "rsb"; },
      [](ShardSpec& s) { s.n = 7; },
      [](ShardSpec& s) { s.patternLabel = "other"; },
      [](ShardSpec& s) { s.pattern = io::polygonPattern(6); },
      [](ShardSpec& s) { s.startKind = "random"; },
      [](ShardSpec& s) { s.start = io::polygonPattern(6); },
      [](ShardSpec& s) { s.sched = sched::SchedulerKind::SSync; },
      [](ShardSpec& s) { s.baseSeed += 1; },
      [](ShardSpec& s) { s.runs += 1; },
      [](ShardSpec& s) { s.maxEvents += 1; },
      [](ShardSpec& s) { s.delta = 0.123456789012345; },
      [](ShardSpec& s) { s.multiplicity = true; },
      [](ShardSpec& s) { s.commonChirality = true; },
      [](ShardSpec& s) { s.crashF = 1; },
      [](ShardSpec& s) { s.crashHorizon += 1; },
      [](ShardSpec& s) { s.fault.seed += 1; },
      [](ShardSpec& s) { s.fault.noiseSigma = 0.01; },
      [](ShardSpec& s) { s.fault.omitProb = 0.01; },
      [](ShardSpec& s) { s.fault.multFlipProb = 0.01; },
      [](ShardSpec& s) { s.fault.dropProb = 0.01; },
      [](ShardSpec& s) { s.fault.truncProb = 0.01; },
      [](ShardSpec& s) { s.faultSeedSet = true; },
      [](ShardSpec& s) { s.watchdogEvents = 50000; },
      [](ShardSpec& s) { s.watchdogMs = 1234; },
      [](ShardSpec& s) { s.retries = 5; },
  };
  const ShardSpec base = scriptedSpec();
  const std::string baseKey = shardConfigKey(base);
  for (std::size_t m = 0; m < std::size(mutations); ++m) {
    ShardSpec changed = base;
    mutations[m](changed);
    EXPECT_NE(shardConfigKey(changed), baseKey) << "mutation " << m;
  }
}

TEST(ShardSpecTest, StartPointsOnlyOnWireWhenAuthoritative) {
  ShardSpec s = fuzzSpec();
  config::Rng rng(3);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);  // stale scratch
  // startKind is "random": the stale start must NOT appear on the wire,
  // or two behaviorally identical specs would get different config keys.
  EXPECT_EQ(toJson(s).find("\"start\""), std::string::npos);
  EXPECT_NE(toJson(scriptedSpec()).find("\"start\""), std::string::npos);
}

TEST(ShardSpecTest, ValidateCatchesInconsistentSpecs) {
  EXPECT_EQ(validateShardSpec(scriptedSpec()), "");
  EXPECT_EQ(validateShardSpec(faultSpec()), "");
  ShardSpec bad = scriptedSpec();
  bad.n = 7;  // pattern still has 6 points
  EXPECT_NE(validateShardSpec(bad), "");
  bad = scriptedSpec();
  bad.startKind = "weird";
  EXPECT_NE(validateShardSpec(bad), "");
  bad = fuzzSpec();
  bad.crashF = 6;  // no live robot left
  EXPECT_NE(validateShardSpec(bad), "");
  bad = fuzzSpec();
  bad.runs = 0;
  EXPECT_NE(validateShardSpec(bad), "");
}

// ------------------------------------------------------------ partition --

TEST(ShardRangeTest, PartitionIsContiguousBalancedAndExact) {
  for (const std::uint64_t runs : {0ull, 1ull, 5ull, 8ull, 64ull, 1001ull}) {
    for (const unsigned count : {1u, 2u, 3u, 4u, 7u, 16u}) {
      std::uint64_t covered = 0;
      std::uint64_t minSize = runs + 1, maxSize = 0;
      std::uint64_t expectLo = 0;
      for (unsigned i = 0; i < count; ++i) {
        const ShardRange r = shardRange(runs, i, count);
        EXPECT_EQ(r.lo, expectLo) << runs << "/" << count << " shard " << i;
        expectLo = r.hi;
        covered += r.size();
        minSize = std::min(minSize, r.size());
        maxSize = std::max(maxSize, r.size());
      }
      EXPECT_EQ(expectLo, runs);
      EXPECT_EQ(covered, runs);
      EXPECT_LE(maxSize - minSize, 1u) << runs << "/" << count;
    }
  }
}

TEST(ShardRangeTest, RejectsOutOfRangeIndices) {
  EXPECT_THROW(shardRange(10, 0, 0), std::runtime_error);
  EXPECT_THROW(shardRange(10, 4, 4), std::runtime_error);
}

// ---------------------------------------------------------- determinism --

TEST(ShardPayloadTest, PayloadDependsOnlyOnSpecIndexAndSalt) {
  const ShardSpec spec = faultSpec();
  core::FormPatternAlgorithm algo;
  Attempt att;
  const std::string p3 = runScenarioPayload(spec, algo, 3, att);
  EXPECT_EQ(runScenarioPayload(spec, algo, 3, att), p3);
  EXPECT_NE(runScenarioPayload(spec, algo, 4, att), p3);
  Attempt salted;
  salted.seedSalt = retrySeedSalt(2);
  EXPECT_NE(runScenarioPayload(spec, algo, 3, salted), p3);
}

class ShardMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardMergeTest, MergedJournalIsByteIdenticalToSingleProcess) {
  // The acceptance matrix: scripted / fuzz / fault-plan campaigns, each
  // sharded 3 ways (uneven split of 8 runs) and merged, serially and on a
  // 2-thread pool inside each shard.
  const int jobs = GetParam();
  const ShardSpec specs[] = {scriptedSpec(), fuzzSpec(), faultSpec()};
  const char* names[] = {"scripted", "fuzz", "fault"};
  core::FormPatternAlgorithm algo;
  for (int k = 0; k < 3; ++k) {
    const ShardSpec& spec = specs[k];
    const std::string tag =
        std::string(names[k]) + "_j" + std::to_string(jobs);
    const std::string key = shardConfigKey(spec);

    const std::string refPath = tempPath("ref_" + tag + ".journal");
    {
      CampaignJournal ref(refPath, key, /*resume=*/false);
      const SupervisorReport rep =
          runShard(spec, algo, 0, spec.runs, &ref, nullptr, jobs);
      EXPECT_EQ(rep.completed, spec.runs);
    }

    std::vector<std::string> shardPaths;
    for (unsigned i = 0; i < 3; ++i) {
      const ShardRange range = shardRange(spec.runs, i, 3);
      const std::string path =
          tempPath("shard_" + tag + "_" + std::to_string(i) + ".journal");
      CampaignJournal j(path, key, /*resume=*/false);
      const SupervisorReport rep =
          runShard(spec, algo, range.lo, range.hi, &j, nullptr, jobs);
      EXPECT_EQ(rep.completed, range.size());
      shardPaths.push_back(path);
    }
    const std::string mergedPath = tempPath("merged_" + tag + ".journal");
    EXPECT_EQ(mergeShardJournals(spec, shardPaths, mergedPath), spec.runs);
    EXPECT_EQ(readAll(mergedPath), readAll(refPath))
        << names[k] << " merged journal differs from single-process";
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, ShardMergeTest,
                         ::testing::Values(1, 2));

TEST(ShardResumeTest, ResumedJournalConvergesByteIdentical) {
  const ShardSpec spec = fuzzSpec();
  core::FormPatternAlgorithm algo;
  const std::string key = shardConfigKey(spec);

  const std::string refPath = tempPath("resume_ref.journal");
  {
    CampaignJournal ref(refPath, key, /*resume=*/false);
    runShard(spec, algo, 0, spec.runs, &ref, nullptr, 1);
  }

  const std::string path = tempPath("resume_partial.journal");
  {
    // "Crash" after three runs: only [0, 3) ever journals.
    CampaignJournal j(path, key, /*resume=*/false);
    runShard(spec, algo, 0, 3, &j, nullptr, 1);
  }
  {
    CampaignJournal j(path, key, /*resume=*/true);
    const SupervisorReport rep =
        runShard(spec, algo, 0, spec.runs, &j, nullptr, 1);
    EXPECT_EQ(rep.replayed, 3u);
    EXPECT_EQ(rep.completed, spec.runs - 3);
  }
  EXPECT_EQ(readAll(path), readAll(refPath));
}

TEST(ShardMergeTest2, RefusesJournalsOfADifferentCampaign) {
  const ShardSpec spec = fuzzSpec();
  ShardSpec other = fuzzSpec();
  other.baseSeed = spec.baseSeed + 1;  // a DIFFERENT experiment
  core::FormPatternAlgorithm algo;

  const std::string path = tempPath("mismatch.journal");
  {
    CampaignJournal j(path, shardConfigKey(other), /*resume=*/false);
    runShard(other, algo, 0, 2, &j, nullptr, 1);
  }
  EXPECT_THROW(
      mergeShardJournals(spec, {path}, tempPath("mismatch_merged.journal")),
      std::runtime_error);
}

TEST(ShardMergeTest2, RefusesMissingShardJournal) {
  // A mistyped --merge path must fail loudly: treated as an empty shard,
  // its runs would silently re-execute in the resume after the merge.
  const ShardSpec spec = fuzzSpec();
  core::FormPatternAlgorithm algo;
  const std::string path = tempPath("present.journal");
  {
    CampaignJournal j(path, shardConfigKey(spec), /*resume=*/false);
    runShard(spec, algo, 0, 2, &j, nullptr, 1);
  }
  EXPECT_THROW(mergeShardJournals(spec, {path, tempPath("no_such.journal")},
                                  tempPath("missing_merged.journal")),
               std::runtime_error);
}

}  // namespace
}  // namespace apf::sim

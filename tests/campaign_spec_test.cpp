/// \file campaign_spec_test.cpp
/// The apf.shard.v1 journal key and the campaign payload's determinism
/// (src/sim/campaign_spec.h):
///
///  * Three specs encode to literal, pinned key bytes, every CampaignSpec
///    field reaches the wire losslessly, and reading the wire back then
///    re-encoding is a byte-level fixed point — the key a journal written
///    by an earlier build carries must stay reproducible.
///  * Changing any single CampaignSpec field changes shardConfigKey — the
///    property the journal's cross-campaign refusal relies on.
///  * A run's payload depends only on (spec, run index, attempt salt).
///
/// apf_sim's campaign flags, resume and the journal lock are exercised end
/// to end by tests/campaign_cli_test.sh and tools/kill_resume_check.sh;
/// journal replay and the config-key refusal in-process by
/// tests/supervisor_test.cpp.

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "sim/campaign_spec.h"
#include "sim/supervisor.h"

namespace apf::sim {
namespace {

/// "scripted" workload: every run starts from the same fixed points.
CampaignSpec scriptedSpec() {
  CampaignSpec s;
  s.algo = "form";
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
CampaignSpec fuzzSpec() {
  CampaignSpec s;
  s.algo = "form";
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
CampaignSpec faultSpec() {
  CampaignSpec s = fuzzSpec();
  s.baseSeed = 31;
  s.crashF = 1;
  s.crashHorizon = 500;
  s.fault.noiseSigma = 0.02;
  s.fault.truncProb = 0.1;
  return s;
}

// ------------------------------------------------------------------ wire --

/// Reads an apf.shard.v1 line back: the scenario fields through the
/// library's strict decoder, then the three supervisor knobs. Tools never
/// decode the key; this proves the encoding loses nothing.
CampaignSpec readKey(const std::string& wire) {
  obs::JsonNode doc;
  CampaignSpec s;
  static_cast<Scenario&>(s) =
      scenarioFromJson(wire, "shard", CampaignSpec::kSchema,
                       {"watchdog_events", "watchdog_ms", "retries"}, doc);
  s.watchdogEvents = obs::requireU64(doc, "watchdog_events", "shard");
  s.watchdogMs = obs::requireU64(doc, "watchdog_ms", "shard");
  s.retries = static_cast<int>(obs::requireU64(doc, "retries", "shard"));
  return s;
}

/// Three specs with exactly representable coordinates, so their keys can
/// be spelled out below.
CampaignSpec pinnedPointsSpec() {
  CampaignSpec s;
  s.algo = "form";
  s.patternLabel = "square";
  s.pattern = config::Configuration({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  s.startKind = "points";
  s.start =
      config::Configuration({{0.5, 0.25}, {3, -1}, {-2, 1.5}, {1.125, 4}});
  s.baseSeed = 11;
  s.runs = 8;
  s.maxEvents = 1500;
  return s;
}

CampaignSpec pinnedRandomSpec() {
  CampaignSpec s = pinnedPointsSpec();
  s.algo = "rsb";
  s.patternLabel = "star";
  s.startKind = "random";
  s.sched = sched::SchedulerKind::SSync;
  s.baseSeed = 0x9E3779B97F4A7C15ull;
  s.runs = 24;
  s.delta = 0.125;
  s.multiplicity = true;
  s.commonChirality = true;
  return s;
}

CampaignSpec pinnedFaultSpec() {
  CampaignSpec s = pinnedPointsSpec();
  s.startKind = "symmetric";
  s.crashF = 2;
  s.crashHorizon = 500;
  s.fault.noiseSigma = 0.01;
  s.fault.seed = 9;
  s.faultSeedSet = true;
  s.watchdogEvents = 50000;
  s.watchdogMs = 1234;
  s.retries = 5;
  return s;
}

TEST(ShardSpecTest, PinnedKeyBytes) {
  // Literal keys: a journal written by any earlier build must keep
  // merging and resuming, so neither a field name nor the field order
  // may change, on the encoder's side or anywhere else.
  const std::string noFault =
      R"("fault":{"crashes":[],"noise_sigma":0,"omit_prob":0,)"
      R"("mult_flip_prob":0,"drop_prob":0,"trunc_prob":0,"seed":0},)";
  EXPECT_EQ(shardConfigKey(pinnedPointsSpec()),
            R"({"shard":"apf.shard.v1","algo":"form","n":4,)"
            R"("pattern_label":"square","pattern":[[0,0],[1,0],[1,1],[0,1]],)"
            R"("start_kind":"points",)"
            R"("start":[[0.5,0.25],[3,-1],[-2,1.5],[1.125,4]],)"
            R"("sched":"ASYNC","base_seed":11,"runs":8,"max_events":1500,)"
            R"("delta":0.05,"multiplicity":false,"chirality":false,)"
            R"("crash_f":0,"crash_horizon":2000,)" +
                noFault +
                R"("fault_seed_set":false,"watchdog_events":0,)"
                R"("watchdog_ms":0,"retries":2})");
  EXPECT_EQ(shardConfigKey(pinnedRandomSpec()),
            R"({"shard":"apf.shard.v1","algo":"rsb","n":4,)"
            R"("pattern_label":"star","pattern":[[0,0],[1,0],[1,1],[0,1]],)"
            R"("start_kind":"random","sched":"SSYNC",)"
            R"("base_seed":11400714819323198485,"runs":24,)"
            R"("max_events":1500,"delta":0.125,"multiplicity":true,)"
            R"("chirality":true,"crash_f":0,"crash_horizon":2000,)" +
                noFault +
                R"("fault_seed_set":false,"watchdog_events":0,)"
                R"("watchdog_ms":0,"retries":2})");
  EXPECT_EQ(shardConfigKey(pinnedFaultSpec()),
            R"({"shard":"apf.shard.v1","algo":"form","n":4,)"
            R"("pattern_label":"square","pattern":[[0,0],[1,0],[1,1],[0,1]],)"
            R"("start_kind":"symmetric","sched":"ASYNC","base_seed":11,)"
            R"("runs":8,"max_events":1500,"delta":0.05,)"
            R"("multiplicity":false,"chirality":false,"crash_f":2,)"
            R"("crash_horizon":500,"fault":{"crashes":[],)"
            R"("noise_sigma":0.01,"omit_prob":0,"mult_flip_prob":0,)"
            R"("drop_prob":0,"trunc_prob":0,"seed":9},)"
            R"("fault_seed_set":true,"watchdog_events":50000,)"
            R"("watchdog_ms":1234,"retries":5})");
}

TEST(ShardSpecTest, RoundTripPreservesEveryField) {
  CampaignSpec s = faultSpec();
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

  const CampaignSpec d = readKey(toJson(s));
  EXPECT_EQ(d.algo, s.algo);
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
    CampaignSpec s;
    s.algo = (i % 2) != 0u ? "rsb" : "form";
    s.startKind = (i % 3) == 0 ? "points" : ((i % 3) == 1 ? "random"
                                                          : "symmetric");
    std::size_t n = 4 + (i % 5);
    if (s.startKind == "symmetric") n += n % 2;  // needs an even n
    s.pattern = io::starPattern(n);
    if (s.startKind == "points") {
      config::Rng rng(100 + i);
      s.start = config::randomConfiguration(n, rng, 5.0, 0.1);
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
    const std::string j2 = toJson(readKey(j1));
    EXPECT_EQ(j1, j2) << "spec " << i << " is not a re-encoding fixed point";
    EXPECT_EQ(shardConfigKey(s), j1);
  }
}

TEST(ShardSpecTest, EveryFieldChangesTheConfigKey) {
  // A journal refuses to resume or merge under a different config key, so
  // two specs that run different experiments must never share one. Each
  // mutation below changes exactly one field of a "points" spec (the only
  // kind whose start is authoritative).
  using Mutation = void (*)(CampaignSpec&);
  const Mutation mutations[] = {
      [](CampaignSpec& s) { s.algo = "rsb"; },
      [](CampaignSpec& s) { s.patternLabel = "other"; },
      [](CampaignSpec& s) { s.pattern = io::polygonPattern(6); },
      [](CampaignSpec& s) { s.startKind = "random"; },
      [](CampaignSpec& s) { s.start = io::polygonPattern(6); },
      [](CampaignSpec& s) { s.sched = sched::SchedulerKind::SSync; },
      [](CampaignSpec& s) { s.baseSeed += 1; },
      [](CampaignSpec& s) { s.runs += 1; },
      [](CampaignSpec& s) { s.maxEvents += 1; },
      [](CampaignSpec& s) { s.delta = 0.123456789012345; },
      [](CampaignSpec& s) { s.multiplicity = true; },
      [](CampaignSpec& s) { s.commonChirality = true; },
      [](CampaignSpec& s) { s.crashF = 1; },
      [](CampaignSpec& s) { s.crashHorizon += 1; },
      [](CampaignSpec& s) { s.fault.seed += 1; },
      [](CampaignSpec& s) { s.fault.noiseSigma = 0.01; },
      [](CampaignSpec& s) { s.fault.omitProb = 0.01; },
      [](CampaignSpec& s) { s.fault.multFlipProb = 0.01; },
      [](CampaignSpec& s) { s.fault.dropProb = 0.01; },
      [](CampaignSpec& s) { s.fault.truncProb = 0.01; },
      [](CampaignSpec& s) { s.faultSeedSet = true; },
      [](CampaignSpec& s) { s.watchdogEvents = 50000; },
      [](CampaignSpec& s) { s.watchdogMs = 1234; },
      [](CampaignSpec& s) { s.retries = 5; },
  };
  const CampaignSpec base = scriptedSpec();
  const std::string baseKey = shardConfigKey(base);
  for (std::size_t m = 0; m < std::size(mutations); ++m) {
    CampaignSpec changed = base;
    mutations[m](changed);
    EXPECT_NE(shardConfigKey(changed), baseKey) << "mutation " << m;
  }
}

TEST(ShardSpecTest, StartPointsOnlyOnWireWhenAuthoritative) {
  CampaignSpec s = fuzzSpec();
  config::Rng rng(3);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);  // stale scratch
  // startKind is "random": the stale start must NOT appear on the wire,
  // or two behaviorally identical specs would get different config keys.
  EXPECT_EQ(toJson(s).find("\"start\""), std::string::npos);
  EXPECT_NE(toJson(scriptedSpec()).find("\"start\""), std::string::npos);
}

TEST(ShardSpecTest, ValidateCatchesInconsistentSpecs) {
  EXPECT_EQ(validate(scriptedSpec()), "");
  EXPECT_EQ(validate(faultSpec()), "");
  CampaignSpec bad = scriptedSpec();
  bad.pattern = io::starPattern(7);  // the start still has 6 points
  EXPECT_NE(validate(bad), "");
  bad = scriptedSpec();
  bad.startKind = "weird";
  EXPECT_NE(validate(bad), "");
  bad = fuzzSpec();
  bad.crashF = 6;  // no live robot left
  EXPECT_NE(validate(bad), "");
  bad = fuzzSpec();
  bad.fault.crashes = {{6, 10}};  // robots are 0..5
  EXPECT_NE(validate(bad), "");
  bad = fuzzSpec();
  bad.runs = 0;
  EXPECT_NE(validate(bad), "");
  // The decoder runs the same check.
  EXPECT_THROW(readKey(toJson(bad)), std::runtime_error);
}

// ---------------------------------------------------------- determinism --

TEST(ShardPayloadTest, PayloadDependsOnlyOnSpecIndexAndSalt) {
  const CampaignSpec spec = faultSpec();
  core::FormPatternAlgorithm algo;
  Attempt att;
  const std::string p3 = runScenarioPayload(spec, algo, 3, att);
  EXPECT_EQ(runScenarioPayload(spec, algo, 3, att), p3);
  EXPECT_NE(runScenarioPayload(spec, algo, 4, att), p3);
  Attempt salted;
  salted.seedSalt = retrySeedSalt(2);
  EXPECT_NE(runScenarioPayload(spec, algo, 3, salted), p3);
}

}  // namespace
}  // namespace apf::sim

/// Tests of the observability layer: JSON round-trips, counter / timer /
/// histogram semantics, recorder sinks, manifest completeness, and the
/// engine's event-stream contract — including that a null sink leaves the
/// simulation bit-identical to an uninstrumented run.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/stats.h"
#include "sim/engine.h"

namespace apf {
namespace {

using config::Configuration;

// ---------------------------------------------------------------- JSON --

TEST(ObsJsonTest, WriterParserRoundTrip) {
  obs::JsonObjectWriter w;
  w.field("name", "a \"quoted\"\\\nstring\twith\tcontrol\x01chars");
  w.field("count", std::uint64_t{18446744073709551615ull});
  w.field("pi", 3.141592653589793);
  w.field("neg", -42);
  w.field("yes", true);
  w.field("no", false);
  const auto parsed = obs::parseFlatObject(w.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("name").asString(),
            "a \"quoted\"\\\nstring\twith\tcontrol\x01chars");
  EXPECT_DOUBLE_EQ(parsed->at("pi").asNumber(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(parsed->at("neg").asNumber(), -42.0);
  EXPECT_TRUE(parsed->at("yes").asBool());
  EXPECT_FALSE(parsed->at("no").asBool(true));
}

TEST(ObsJsonTest, RejectsMalformedAndNested) {
  EXPECT_FALSE(obs::parseFlatObject("").has_value());
  EXPECT_FALSE(obs::parseFlatObject("{\"a\":1").has_value());
  EXPECT_FALSE(obs::parseFlatObject("{\"a\":}").has_value());
  EXPECT_FALSE(obs::parseFlatObject("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::parseFlatObject("{\"a\":{\"b\":1}}").has_value());
  EXPECT_FALSE(obs::parseFlatObject("{\"a\":[1,2]}").has_value());
  EXPECT_TRUE(obs::parseFlatObject("{}").has_value());
  EXPECT_TRUE(obs::parseFlatObject(" { \"a\" : null } ").has_value());
}

TEST(ObsJsonTest, TreeParserHandlesNestedDocuments) {
  const auto doc = obs::parseJson(
      R"({"schema":"x","quick":false,"workloads":[)"
      R"({"workload":"a","n":16,"runs_per_sec":12.5},)"
      R"({"workload":"b","n":64,"runs_per_sec":3.25}],)"
      R"("meta":{"nested":{"deep":[1,2,3]}}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, obs::JsonNode::Kind::Object);
  EXPECT_EQ(doc->find("schema")->asString(), "x");
  EXPECT_FALSE(doc->find("quick")->asBool(true));
  const obs::JsonNode* workloads = doc->find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->kind, obs::JsonNode::Kind::Array);
  ASSERT_EQ(workloads->items.size(), 2u);
  EXPECT_EQ(workloads->items[0].find("workload")->asString(), "a");
  EXPECT_DOUBLE_EQ(workloads->items[1].find("runs_per_sec")->asNumber(),
                   3.25);
  const obs::JsonNode* deep =
      doc->find("meta")->find("nested")->find("deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->items.size(), 3u);
  EXPECT_DOUBLE_EQ(deep->items[2].asNumber(), 3.0);
  // find() on a non-object / missing key returns nullptr, not UB.
  EXPECT_EQ(workloads->find("x"), nullptr);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(ObsJsonTest, TreeParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::parseJson("").has_value());
  EXPECT_FALSE(obs::parseJson("{\"a\":1").has_value());
  EXPECT_FALSE(obs::parseJson("[1,2,]").has_value());
  EXPECT_FALSE(obs::parseJson("{\"a\":1} trailing").has_value());
  EXPECT_TRUE(obs::parseJson("[]").has_value());
  EXPECT_TRUE(obs::parseJson("3.5").has_value());
  EXPECT_TRUE(obs::parseJson("\"s\"").has_value());
  // Depth guard: pathological nesting fails cleanly instead of blowing
  // the stack.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_FALSE(obs::parseJson(deep).has_value());
}

// --------------------------------------------------------------- stats --

TEST(ObsStatsTest, CounterAndTimerSemantics) {
  obs::Timer t;
  t.add(100);
  t.add(300);
  EXPECT_EQ(t.nanos(), 400u);
  EXPECT_EQ(t.count(), 2u);
}

TEST(ObsStatsTest, HistogramBucketsAndQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(h.quantileUpperBound(0.5), 0u);
  // Bucket layout: 0 -> bucket 0; [2^(k-1), 2^k) -> bucket k.
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.bucket(0), 1u);  // {0}
  EXPECT_EQ(h.bucket(1), 1u);  // {1}
  EXPECT_EQ(h.bucket(2), 2u);  // {2, 3}
  EXPECT_EQ(h.bucket(3), 1u);  // {4}
  EXPECT_EQ(h.quantileUpperBound(0.0), 0u);
  EXPECT_EQ(h.quantileUpperBound(1.0), 4u);
  // Huge values clamp into the final bucket and report the observed max.
  obs::Histogram big;
  big.add(std::uint64_t{1} << 60);
  EXPECT_EQ(big.bucket(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(big.quantileUpperBound(1.0), std::uint64_t{1} << 60);
}

TEST(ObsStatsTest, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile is 0, including the extremes.
  obs::Histogram empty;
  EXPECT_EQ(empty.quantileUpperBound(0.0), 0u);
  EXPECT_EQ(empty.quantileUpperBound(0.5), 0u);
  EXPECT_EQ(empty.quantileUpperBound(1.0), 0u);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // Out-of-range q clamps rather than misbehaving.
  obs::Histogram h;
  h.add(7);
  EXPECT_EQ(h.quantileUpperBound(-1.0), h.quantileUpperBound(0.0));
  EXPECT_EQ(h.quantileUpperBound(2.0), h.quantileUpperBound(1.0));

  // Single value: every quantile names its bucket's bound, capped at the
  // observed max.
  EXPECT_EQ(h.quantileUpperBound(0.0), 7u);
  EXPECT_EQ(h.quantileUpperBound(0.5), 7u);
  EXPECT_EQ(h.quantileUpperBound(1.0), 7u);

  // All mass in one bucket: the conservative bound is the bucket's upper
  // bound clamped to the max actually observed.
  obs::Histogram one;
  one.add(5);
  one.add(6);  // both land in bucket 3 = [4, 8)
  EXPECT_EQ(one.bucket(3), 2u);
  EXPECT_EQ(one.quantileUpperBound(0.0), 6u);
  EXPECT_EQ(one.quantileUpperBound(1.0), 6u);

  // q = 0 vs q = 1 straddling buckets: 0-quantile stays in the first
  // occupied bucket, 1-quantile reaches the last.
  obs::Histogram wide;
  wide.add(0);
  wide.add(1000);
  EXPECT_EQ(wide.quantileUpperBound(0.0), 0u);
  EXPECT_EQ(wide.quantileUpperBound(1.0), 1000u);
}

TEST(ObsStatsTest, HistogramMerge) {
  obs::Histogram a, b;
  a.add(1);
  a.add(5);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 15u);
  EXPECT_EQ(a.max(), 9u);
}

// ------------------------------------------------------------ manifest --

TEST(ObsManifestTest, SetOverwritesInPlace) {
  obs::Manifest m;
  m.set("k", 1);
  m.set("j", 2);
  m.set("k", 3);
  EXPECT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(*m.findEncoded("k"), "3");
  // Insertion order preserved.
  EXPECT_EQ(m.entries()[0].first, "k");
}

TEST(ObsManifestTest, DescribeRunCapturesEveryOption) {
  sim::EngineOptions opts;
  opts.seed = 77;
  opts.maxEvents = 12345;
  opts.multiplicityDetection = true;
  opts.commonChirality = true;
  opts.randomizeFrames = false;
  opts.sched.kind = sched::SchedulerKind::SSync;
  opts.sched.delta = 0.125;
  opts.sched.fairnessBound = 99;
  opts.sched.earlyStopProb = 0.25;
  opts.sched.activationProb = 0.75;
  const obs::Manifest m = sim::describeRun(opts, "algo-x", "star", 8);
  for (const char* key :
       {"schema", "build.compiler", "algo", "pattern", "n", "seed",
        "engine.max_events", "engine.multiplicity_detection",
        "engine.common_chirality", "engine.randomize_frames",
        "engine.collect_timings", "engine.script_events", "sched.kind",
        "sched.delta", "sched.fairness_bound", "sched.early_stop_prob",
        "sched.activation_prob"}) {
    EXPECT_NE(m.findEncoded(key), nullptr) << key;
  }
  const auto parsed = obs::parseFlatObject(m.toJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("seed").asNumber(), 77.0);
  EXPECT_EQ(parsed->at("sched.kind").asString(), "SSYNC");
  EXPECT_DOUBLE_EQ(parsed->at("sched.delta").asNumber(), 0.125);
  EXPECT_EQ(parsed->at("sched.fairness_bound").asNumber(), 99.0);
  EXPECT_TRUE(parsed->at("engine.multiplicity_detection").asBool());
  EXPECT_FALSE(parsed->at("engine.randomize_frames").asBool(true));
}

TEST(ObsManifestTest, FileRoundTripAndLoudFailure) {
  obs::Manifest m;
  m.set("answer", 42);
  const std::string path = "/tmp/apf_obs_manifest_test.json";
  m.write(path);
  const obs::JsonObject back = obs::loadFlatJsonFile(path);
  EXPECT_EQ(back.at("answer").asNumber(), 42.0);
  std::remove(path.c_str());
  // Missing parent directories are created rather than erroring loudly
  // (results/ trees need not pre-exist).
  const std::string nested =
      "/tmp/apf_obs_manifest_nested/sub/dir/x.json";
  m.write(nested);
  EXPECT_EQ(obs::loadFlatJsonFile(nested).at("answer").asNumber(), 42.0);
  std::filesystem::remove_all("/tmp/apf_obs_manifest_nested");
  // A genuinely unwritable path (a parent component is a regular FILE,
  // so no directory can be created there) still throws.
  { std::ofstream block("/tmp/apf_obs_manifest_block"); }
  EXPECT_THROW(m.write("/tmp/apf_obs_manifest_block/x.json"),
               std::runtime_error);
  std::remove("/tmp/apf_obs_manifest_block");
  EXPECT_THROW(obs::loadFlatJsonFile("/nonexistent/nope.json"),
               std::runtime_error);
}

// ------------------------------------------- engine event stream ------

sim::EngineOptions electionOptions(std::uint64_t seed) {
  sim::EngineOptions opts;
  opts.seed = seed;
  opts.maxEvents = 400000;
  opts.sched.kind = sched::SchedulerKind::Async;
  return opts;
}

/// Symmetric start + random pattern: forces the randomized election, so
/// the log contains election_round events and nonzero bits. Same
/// parameters as integration_test's SymmetricStart/rho4, which is known
/// to terminate.
struct ElectionScenario {
  Configuration start;
  Configuration pattern;
  ElectionScenario() {
    config::Rng rng(11);
    start = config::symmetricConfiguration(4, 2, rng);
    pattern = io::randomPatternByName(start.size(), 55);
  }
};

TEST(ObsEngineTest, EventLogMatchesMetricsExactly) {
  const ElectionScenario sc;
  core::FormPatternAlgorithm algo;
  sim::EngineOptions opts = electionOptions(104);
  obs::MemoryRecorder rec;
  opts.recorder = &rec;
  sim::Engine eng(sc.start, sc.pattern, algo, opts);
  const sim::RunResult res = eng.run();
  ASSERT_TRUE(res.terminated);
  ASSERT_FALSE(rec.events().empty());

  // Stream framing: dense indexes, RunStart first, RunEnd last.
  const auto& evs = rec.events();
  EXPECT_EQ(evs.front().kind, obs::EventKind::RunStart);
  EXPECT_EQ(evs.back().kind, obs::EventKind::RunEnd);
  for (std::size_t k = 0; k < evs.size(); ++k) {
    EXPECT_EQ(evs[k].index, k);
    if (k > 0) {
      EXPECT_GE(evs[k].wallNanos, evs[k - 1].wallNanos);
    }
  }
  EXPECT_EQ(evs.back().flag, res.success);

  // Per-phase Compute totals == Metrics::phaseActivations, bit-for-bit.
  std::map<int, std::uint64_t> perPhase;
  std::uint64_t bits = 0, elections = 0, looks = 0, cycles = 0;
  std::uint64_t computes = 0;
  for (const auto& e : evs) {
    switch (e.kind) {
      case obs::EventKind::Compute:
        perPhase[e.phaseTag] += 1;
        bits += e.bitsUsed;
        computes += 1;
        break;
      case obs::EventKind::ElectionRound:
        elections += 1;
        break;
      case obs::EventKind::Look:
        looks += 1;
        break;
      case obs::EventKind::CycleComplete:
        cycles += 1;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(perPhase, res.metrics.phaseActivations);
  EXPECT_EQ(bits, res.metrics.randomBits);
  EXPECT_EQ(elections, res.metrics.electionRounds);
  EXPECT_EQ(cycles, res.metrics.cycles);
  EXPECT_GT(bits, 0u) << "symmetric start must force the election";
  EXPECT_EQ(elections, bits) << "one bit per election round";
  EXPECT_GT(looks, 0u);
  // Staleness histogram counts one entry per Compute.
  EXPECT_EQ(res.metrics.staleness.count(), computes);
  // Timing is implied by an attached recorder.
  EXPECT_GT(res.metrics.computeTime.nanos(), 0u);
  EXPECT_FALSE(res.metrics.phaseNanos.empty());
}

TEST(ObsEngineTest, JsonlSinkRoundTrip) {
  const ElectionScenario sc;
  core::FormPatternAlgorithm algo;
  const std::string path = "/tmp/apf_obs_jsonl_test.jsonl";
  sim::EngineOptions opts = electionOptions(104);
  obs::JsonlRecorder rec(path);
  opts.recorder = &rec;
  sim::Engine eng(sc.start, sc.pattern, algo, opts);
  const sim::RunResult res = eng.run();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::map<int, std::uint64_t> perPhase;
  std::uint64_t lines = 0, bits = 0;
  std::string firstKind, lastKind;
  while (std::getline(in, line)) {
    const auto obj = obs::parseFlatObject(line);
    ASSERT_TRUE(obj.has_value()) << "line " << lines << ": " << line;
    const std::string kind = obj->at("ev").asString();
    if (lines == 0) firstKind = kind;
    lastKind = kind;
    EXPECT_EQ(obj->at("i").asNumber(), static_cast<double>(lines));
    if (kind == "compute") {
      perPhase[static_cast<int>(obj->at("phase").asNumber())] += 1;
      bits += static_cast<std::uint64_t>(obj->at("bits").asNumber());
    }
    ++lines;
  }
  EXPECT_EQ(firstKind, "run_start");
  EXPECT_EQ(lastKind, "run_end");
  EXPECT_EQ(perPhase, res.metrics.phaseActivations);
  EXPECT_EQ(bits, res.metrics.randomBits);
  std::remove(path.c_str());
}

TEST(ObsEngineTest, JsonlSinkCreatesParentDirsAndThrowsWhenUnwritable) {
  // Missing parent directories are created on demand.
  const std::string nested = "/tmp/apf_obs_jsonl_nested/sub/log.jsonl";
  {
    obs::JsonlRecorder rec(nested);
    obs::Event e{};
    e.kind = obs::EventKind::RunStart;
    rec.record(e);
  }
  EXPECT_TRUE(std::filesystem::exists(nested));
  std::filesystem::remove_all("/tmp/apf_obs_jsonl_nested");
  // A parent component that is a regular file still fails loudly.
  { std::ofstream block("/tmp/apf_obs_jsonl_block"); }
  EXPECT_THROW(obs::JsonlRecorder("/tmp/apf_obs_jsonl_block/log.jsonl"),
               std::runtime_error);
  std::remove("/tmp/apf_obs_jsonl_block");
}

TEST(ObsEngineTest, JsonlRecorderDestructorFlushesToDisk) {
  const std::string path = "/tmp/apf_obs_jsonl_flush_test.jsonl";
  {
    obs::JsonlRecorder rec(path);
    obs::Event e{};
    e.kind = obs::EventKind::RunStart;
    rec.record(e);
    // No explicit flush: the destructor's flush must land the line.
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(obs::parseFlatObject(line).has_value()) << line;
  std::remove(path.c_str());
}

TEST(ObsEngineTest, JsonlRecorderFailingStreamThrowsOnUseNotOnDestroy) {
  std::ostringstream os;
  {
    obs::JsonlRecorder rec(os);
    obs::Event e{};
    e.kind = obs::EventKind::RunStart;
    rec.record(e);
    EXPECT_FALSE(os.str().empty());
    // Break the stream mid-run: record() and flush() must fail loudly —
    // telemetry is never silently lost — but the destructor, which also
    // flushes, must stay quiet (throwing destructors terminate).
    os.setstate(std::ios::badbit);
    EXPECT_THROW(rec.record(e), std::runtime_error);
    EXPECT_THROW(rec.flush(), std::runtime_error);
  }  // destructor runs against the still-failing stream: must not throw
  SUCCEED();
}

TEST(ObsEngineTest, NullSinkRunBitIdenticalToUninstrumented) {
  const ElectionScenario sc;
  core::FormPatternAlgorithm algo;

  sim::EngineOptions plain = electionOptions(104);
  sim::Engine bare(sc.start, sc.pattern, algo, plain);
  const sim::RunResult bareRes = bare.run();

  sim::EngineOptions nulled = electionOptions(104);
  obs::NullRecorder nullSink;
  nulled.recorder = &nullSink;
  sim::Engine withNull(sc.start, sc.pattern, algo, nulled);
  const sim::RunResult nullRes = withNull.run();

  sim::EngineOptions memo = electionOptions(104);
  obs::MemoryRecorder memSink;
  memo.recorder = &memSink;
  sim::Engine withMem(sc.start, sc.pattern, algo, memo);
  const sim::RunResult memRes = withMem.run();

  for (const sim::RunResult* res : {&nullRes, &memRes}) {
    EXPECT_EQ(res->success, bareRes.success);
    EXPECT_EQ(res->terminated, bareRes.terminated);
    EXPECT_EQ(res->metrics.cycles, bareRes.metrics.cycles);
    EXPECT_EQ(res->metrics.events, bareRes.metrics.events);
    EXPECT_EQ(res->metrics.randomBits, bareRes.metrics.randomBits);
    EXPECT_EQ(res->metrics.distance, bareRes.metrics.distance);
    EXPECT_EQ(res->metrics.phaseActivations,
              bareRes.metrics.phaseActivations);
  }
  // Positions must be BIT-identical: instrumentation may not perturb the
  // simulation in any way.
  ASSERT_EQ(withNull.positions().size(), bare.positions().size());
  for (std::size_t i = 0; i < bare.positions().size(); ++i) {
    EXPECT_EQ(withNull.positions()[i], bare.positions()[i]) << i;
    EXPECT_EQ(withMem.positions()[i], bare.positions()[i]) << i;
  }
}

TEST(ObsEngineTest, ManifestResultSectionMatchesRun) {
  const ElectionScenario sc;
  core::FormPatternAlgorithm algo;
  sim::EngineOptions opts = electionOptions(104);
  sim::Engine eng(sc.start, sc.pattern, algo, opts);
  const sim::RunResult res = eng.run();

  obs::Manifest m = sim::describeRun(opts, algo.name(), "random", 8);
  sim::appendResult(m, res);
  const auto parsed = obs::parseFlatObject(m.toJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("result.cycles").asNumber(),
            static_cast<double>(res.metrics.cycles));
  EXPECT_EQ(parsed->at("result.random_bits").asNumber(),
            static_cast<double>(res.metrics.randomBits));
  EXPECT_EQ(parsed->at("result.election_rounds").asNumber(),
            static_cast<double>(res.metrics.electionRounds));
  EXPECT_EQ(parsed->at("result.success").asBool(), res.success);
  // Every phase with activations appears as a result.phase.<tag> key.
  for (const auto& [tag, count] : res.metrics.phaseActivations) {
    const std::string key =
        "result.phase." + std::to_string(tag) + ".activations";
    ASSERT_TRUE(parsed->count(key)) << key;
    EXPECT_EQ(parsed->at(key).asNumber(), static_cast<double>(count));
  }
}

}  // namespace
}  // namespace apf

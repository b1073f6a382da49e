/// \file apf_estimate.cpp
/// Adaptive Monte Carlo estimation CLI (docs/STATISTICS.md): runs seeded
/// simulation trials in deterministic batches on the campaign pool,
/// maintains streaming estimates of the success probability (Wilson /
/// Clopper–Pearson), run cost, and random-bit consumption, and stops as
/// soon as a sequential rule is satisfied — instead of guessing a fixed
/// run count. With --ab it runs TWO arms (two algorithms) and prints the
/// comparison gates (Newcombe interval on the success-rate difference,
/// bound separation on the means).
///
/// Everything printed is deterministic: same options + seed produce a
/// byte-identical apf.estimate.v1 document for any --jobs / APF_JOBS
/// (CI's estimate-smoke job byte-compares them), and --journal/--resume
/// replay a killed campaign to the same document.
///
/// Examples:
///   apf_estimate --n 8 --sched async --half-width 0.05
///   apf_estimate --ab --algo rsb --algo-b yy --chirality --sched async
///   apf_estimate --journal est.journal ... ; apf_estimate --resume ...

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "est/ab.h"
#include "est/adaptive.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "sched/seed.h"
#include "sim/engine.h"
#include "sim/shard.h"
#include "sim/supervisor.h"
#include "algo_select.h"
#include "cli_parse.h"

namespace {

struct Options {
  std::uint64_t n = 8;
  std::string pattern = "star";
  std::string startKind = "random";  // random | symmetric
  std::string sched = "async";
  std::string algo = "form";
  std::string algoB = "yy";  // --ab second arm
  bool ab = false;
  std::uint64_t seed = 1;
  double delta = 0.05;
  std::uint64_t maxEvents = 1000000;
  bool multiplicity = false;
  bool commonChirality = false;
  apf::est::StoppingOptions stop;
  int jobs = 0;
  std::string outPath;
  std::string manifestPath;
  std::string jsonlPath;
  std::string journalPath;  // fresh journal (truncates)
  std::string resumePath;   // resume an existing journal
  bool quiet = false;
};

void registerFlags(apf::cli::ArgParser& args, Options& o) {
  using apf::cli::ArgParser;
  args.section("experiment");
  args.u64("--n", &o.n, "N", "robots (default 8)", nullptr,
           /*positive=*/true);
  args.str("--pattern", &o.pattern, "NAME",
           "target pattern (io/patterns.h names; default\nstar)");
  args.str("--start", &o.startKind, "KIND",
           "random|symmetric start per trial (default\n"
           "random; symmetric needs an even n >= 4)");
  args.str("--sched", &o.sched, "S", "fsync|ssync|async (default async)");
  args.str("--algo", &o.algo, "A",
           std::string(apf::cli::algorithmNames()) + " (default form)");
  args.flag("--ab", &o.ab,
            "two-arm mode: estimate --algo and --algo-b,\n"
            "print comparison gates");
  args.str("--algo-b", &o.algoB, "A", "second arm for --ab (default yy)");
  args.u64("--seed", &o.seed, "S",
           "base seed; trial i uses sampleSeed(S, i)");
  args.num("--delta", &o.delta, ArgParser::Num::NonNegative, "D",
           "adversary min-move distance (default 0.05)");
  args.u64("--max-events", &o.maxEvents, "N",
           "per-trial event cap (default 1e6)");
  args.flag("--multiplicity", &o.multiplicity,
            "enable multiplicity detection");
  args.flag("--chirality", &o.commonChirality,
            "give all robots a common chirality");

  args.section("stopping rule (evaluated at batch boundaries only)");
  args.u64("--batch", &o.stop.batchSize, "N",
           "samples per batch (default 16)");
  args.u64("--min-samples", &o.stop.minSamples, "N",
           "no early stop before N samples (default 32)");
  args.u64("--max-samples", &o.stop.maxSamples, "N",
           "hard budget (default 512)");
  args.num("--confidence", &o.stop.confidence, ArgParser::Num::Confidence,
           "P", "interval confidence in (0, 1) (default 0.95)");
  args.num("--half-width", &o.stop.targetHalfWidth,
           ArgParser::Num::Probability, "W",
           "stop when the Wilson half-width on the success\n"
           "rate reaches W; 0 disables (default 0.05)");
  args.num("--futility", &o.stop.futilityFloor, ArgParser::Num::Probability,
           "P",
           "stop when the Wilson upper bound falls below\n"
           "P; 0 disables (default 0)");

  args.section("execution");
  args.intNonNegative("--jobs", &o.jobs, "N",
                      "campaign threads (0 = APF_JOBS/hardware); any\n"
                      "value prints the byte-identical report");
  args.str("--journal", &o.journalPath, "F",
           "crash-safe checkpoint journal (fresh file;\n"
           "--ab appends .a/.b per arm)");
  args.str("--resume", &o.resumePath, "F",
           "resume from journal F (completed samples are\n"
           "not re-run; report is byte-identical)");

  args.section("output");
  args.str("--out", &o.outPath, "F", "also write the JSON document to F");
  args.str("--manifest", &o.manifestPath, "F",
           "write est.* manifest (apf_report ingests it)");
  args.str("--jsonl", &o.jsonlPath, "F",
           "write batch_scheduled/estimate_converged\nevents (JSONL)");
  args.flag("--quiet", &o.quiet, "JSON document only, no human summary");
}

/// Builds one arm's Trial closure: a pure function of (seed, index) — its
/// own start configuration, its own Engine, nothing shared (the
/// sim::runCampaign worker contract).
apf::est::Trial makeTrial(const Options& o,
                          const apf::config::Configuration& pattern,
                          apf::sim::Algorithm& algo, bool multiplicity) {
  using namespace apf;
  sim::EngineOptions eopts;
  eopts.maxEvents = o.maxEvents;
  eopts.multiplicityDetection = multiplicity || o.multiplicity;
  eopts.commonChirality = o.commonChirality;
  eopts.sched.delta = o.delta;
  const auto kind = sched::schedulerFromName(o.sched);
  if (!kind) {
    std::fprintf(stderr, "apf_estimate: unknown scheduler: %s\n",
                 o.sched.c_str());
    std::exit(2);
  }
  eopts.sched.kind = *kind;
  const std::string startKind = o.startKind;
  const auto n = static_cast<std::size_t>(o.n);
  return [eopts, startKind, n, pattern, &algo](
             std::uint64_t seed, std::uint64_t) -> est::Sample {
    sim::EngineOptions opts = eopts;
    opts.seed = seed;
    sim::Engine engine(sim::generateStart(startKind, n, seed), pattern, algo,
                       opts);
    const sim::RunResult res = engine.run();
    est::Sample s;
    s.success = res.success;
    s.cycles = static_cast<double>(res.metrics.cycles);
    s.events = static_cast<double>(res.metrics.events);
    s.bits = res.metrics.randomBits;
    return s;
  };
}

/// Arm-defining options as a flat manifest; its JSON is the journal config
/// key (resuming under ANY different option must be refused).
apf::obs::Manifest armConfig(const Options& o, const std::string& label,
                             std::uint64_t baseSeed) {
  apf::obs::Manifest m;
  m.set("campaign", "apf_estimate");
  m.set("algo", label);
  m.set("n", static_cast<std::uint64_t>(o.n));
  m.set("pattern", o.pattern);
  m.set("start", o.startKind);
  m.set("sched", o.sched);
  m.set("base_seed", baseSeed);
  m.set("batch", o.stop.batchSize);
  m.set("min_samples", o.stop.minSamples);
  m.set("max_samples", o.stop.maxSamples);
  m.set("confidence", o.stop.confidence);
  m.set("half_width", o.stop.targetHalfWidth);
  m.set("futility", o.stop.futilityFloor);
  m.set("max_events", o.maxEvents);
  m.set("delta", o.delta);
  m.set("multiplicity", o.multiplicity);
  m.set("chirality", o.commonChirality);
  return m;
}

struct Arm {
  std::string label;
  apf::est::ArmEstimate estimate;
};

Arm runArm(const Options& o, const std::string& algoName,
           std::uint64_t baseSeed, const std::string& journalSuffix,
           apf::obs::Recorder* recorder) {
  using namespace apf;
  bool multiplicity = false;
  std::unique_ptr<sim::Algorithm> algo =
      cli::makeAlgorithm(algoName, multiplicity);
  if (algo == nullptr) {
    std::fprintf(stderr, "apf_estimate: unknown algorithm: %s (want %s)\n",
                 algoName.c_str(), cli::algorithmNames());
    std::exit(2);
  }
  const config::Configuration pattern =
      io::patternByName(o.pattern, o.n, o.seed + 1000);

  std::unique_ptr<sim::CampaignJournal> journal;
  const bool resuming = !o.resumePath.empty();
  const std::string jpath =
      (resuming ? o.resumePath : o.journalPath) + journalSuffix;
  if (jpath != journalSuffix) {  // a journal path was given
    journal = std::make_unique<sim::CampaignJournal>(
        jpath, armConfig(o, algo->name(), baseSeed).toJson(), resuming);
  }

  est::AdaptiveOptions aopts;
  aopts.stop = o.stop;
  aopts.baseSeed = baseSeed;
  aopts.jobs = o.jobs;
  aopts.recorder = recorder;
  aopts.journal = journal.get();

  Arm arm;
  arm.label = algo->name();
  arm.estimate = est::runAdaptive(algo->name(),
                                  makeTrial(o, pattern, *algo, multiplicity),
                                  aopts);
  return arm;
}

void printHuman(const Arm& arm) {
  using apf::est::Interval;
  const apf::est::ArmEstimate& e = arm.estimate;
  const Interval w = apf::est::wilson(e.success, e.confidence);
  const Interval bits = apf::est::empiricalBernstein(e.bits, e.confidence);
  std::printf(
      "arm %-12s %llu/%llu samples in %llu batches, stop=%s%s\n"
      "  success %llu/%llu = %.3f, wilson [%.3f, %.3f] @ %.0f%%\n"
      "  bits mean %.1f, eb [%.1f, %.1f]; cycles mean %.1f; events mean "
      "%.1f\n",
      arm.label.c_str(), static_cast<unsigned long long>(e.samples),
      static_cast<unsigned long long>(e.maxSamples),
      static_cast<unsigned long long>(e.batches),
      apf::est::stopReasonName(e.stopReason),
      e.converged ? " (early)" : "",
      static_cast<unsigned long long>(e.success.successes),
      static_cast<unsigned long long>(e.success.trials), e.success.rate(),
      w.lo, w.hi, 100.0 * e.confidence, e.bits.mean, bits.lo, bits.hi,
      e.cycles.mean, e.events.mean);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace apf;
  Options o;
  cli::ArgParser args(
      "apf_estimate",
      "adaptive Monte Carlo estimation for APF campaigns\n"
      "(sequential stopping + confidence intervals; docs/STATISTICS.md)");
  registerFlags(args, o);
  args.parse(argc, argv);
  try {
    o.stop.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apf_estimate: %s\n", e.what());
    return 2;
  }
  if (const std::string why = sim::validateStartKind(o.startKind, o.n);
      !why.empty()) {
    std::fprintf(stderr, "apf_estimate: %s\n", why.c_str());
    return 2;
  }
  if (!o.journalPath.empty() && !o.resumePath.empty()) {
    std::fprintf(stderr,
                 "apf_estimate: --journal and --resume are exclusive\n");
    return 2;
  }

  std::unique_ptr<obs::JsonlRecorder> sink;
  if (!o.jsonlPath.empty()) {
    sink = std::make_unique<obs::JsonlRecorder>(o.jsonlPath);
  }

  // Per-arm base seeds are derived, not shared: two arms must not reuse
  // the same trial seeds (that would correlate them), and the derivation
  // must be a pure function of --seed for reproducibility.
  const std::uint64_t seedA = sched::sampleSeed(o.seed, 0);
  const std::uint64_t seedB = sched::sampleSeed(o.seed, 1);

  const Arm a = runArm(o, o.algo, seedA, o.ab ? ".a" : "", sink.get());
  std::unique_ptr<Arm> b;
  if (o.ab) {
    b = std::make_unique<Arm>(runArm(o, o.algoB, seedB, ".b", sink.get()));
  }
  if (sink != nullptr) sink->flush();

  // The apf.estimate.v1 document. No wall-clock, no thread counts:
  // byte-identical across --jobs values and kill/resume (CI byte-compares).
  obs::JsonObjectWriter top;
  top.field("schema", "apf.estimate.v1");
  top.field("n", static_cast<std::uint64_t>(o.n));
  top.field("pattern", o.pattern);
  top.field("start", o.startKind);
  top.field("sched", o.sched);
  top.field("seed", o.seed);
  if (o.ab) {
    top.rawField("a", a.estimate.toJson());
    top.rawField("b", b->estimate.toJson());
    top.rawField("ab", est::compareArms(a.estimate, b->estimate).toJson());
  } else {
    top.rawField("arm", a.estimate.toJson());
  }
  const std::string doc = top.str();

  if (!o.outPath.empty()) {
    obs::createParentDirs(o.outPath);
    std::FILE* f = std::fopen(o.outPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "apf_estimate: cannot write %s\n",
                   o.outPath.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", doc.c_str());
    std::fclose(f);
  }
  if (!o.manifestPath.empty()) {
    obs::Manifest m;
    obs::addBuildInfo(m);
    m.set("tool", "apf_estimate");
    m.merge(armConfig(o, a.label, seedA));
    if (o.ab) {
      est::appendManifest(a.estimate, m, "est.a.");
      est::appendManifest(b->estimate, m, "est.b.");
    } else {
      est::appendManifest(a.estimate, m);
    }
    m.write(o.manifestPath);
  }

  if (!o.quiet) {
    printHuman(a);
    if (o.ab) {
      printHuman(*b);
      const est::AbReport ab = est::compareArms(a.estimate, b->estimate);
      std::printf(
          "A/B (%s vs %s) @ %.0f%%:\n"
          "  success diff %+.3f, newcombe [%+.3f, %+.3f] -> %s\n"
          "  bits   diff %+.1f, bounds [%.1f, %.1f] vs [%.1f, %.1f] -> %s\n"
          "  cycles diff %+.1f -> %s; events diff %+.1f -> %s\n",
          a.label.c_str(), b->label.c_str(), 100.0 * ab.confidence,
          ab.success.diff, ab.success.ci.lo, ab.success.ci.hi,
          est::verdictName(ab.success.verdict), ab.bits.diff, ab.bits.a.lo,
          ab.bits.a.hi, ab.bits.b.lo, ab.bits.b.hi,
          est::verdictName(ab.bits.verdict), ab.cycles.diff,
          est::verdictName(ab.cycles.verdict), ab.events.diff,
          est::verdictName(ab.events.verdict));
    }
  }
  std::printf("%s\n", doc.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "apf_estimate: %s\n", e.what());
  return 1;
}

/// \file apf_estimate.cpp
/// Adaptive Monte Carlo estimation CLI (docs/STATISTICS.md): runs seeded
/// simulation trials in deterministic batches on the campaign pool,
/// maintains streaming estimates of the success probability (Wilson /
/// Clopper–Pearson), run cost, and random-bit consumption, and stops as
/// soon as a sequential rule is satisfied — instead of guessing a fixed
/// run count.
///
/// Everything printed is deterministic: same options + seed produce a
/// byte-identical apf.estimate.v1 document for any --jobs / APF_JOBS
/// (tools/golden_csv_check.sh compares one with
/// results/estimate_form_n8_seed5.json), and --journal/--resume replay a
/// killed campaign to the same document.
///
/// Examples:
///   apf_estimate --n 8 --sched async --half-width 0.05
///   apf_estimate --journal est.journal ... ; apf_estimate --resume ...

#include <cstdio>
#include <memory>
#include <string>

#include "est/adaptive.h"
#include "io/patterns.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "sched/seed.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/supervisor.h"
#include "algo_select.h"
#include "cli_parse.h"

namespace {

struct Options {
  /// The trials' scenario.
  apf::sim::Scenario sc;
  std::uint64_t n = 8;
  std::string sched = "async";
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
  args.str("--pattern", &o.sc.patternLabel, "NAME",
           "target pattern (io/patterns.h names; default\nstar)");
  args.str("--start", &o.sc.startKind, "KIND",
           "random|symmetric start per trial (default\n"
           "random; symmetric needs an even n >= 4)");
  args.str("--sched", &o.sched, "S", "fsync|ssync|async (default async)");
  args.str("--algo", &o.sc.algo, "A",
           std::string(apf::cli::algorithmNames()) + " (default form)");
  args.u64("--seed", &o.sc.baseSeed, "S",
           "base seed; trial i uses sampleSeed(S, i)");
  args.num("--delta", &o.sc.delta, ArgParser::Num::NonNegative, "D",
           "adversary min-move distance (default 0.05)");
  args.u64("--max-events", &o.sc.maxEvents, "N",
           "per-trial event cap (default 1e6)");
  args.flag("--multiplicity", &o.sc.multiplicity,
            "enable multiplicity detection");
  args.flag("--chirality", &o.sc.commonChirality,
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
           "crash-safe checkpoint journal (fresh file)");
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

/// Arm-defining options as a flat manifest; its JSON is the journal config
/// key (resuming under ANY different option must be refused).
apf::obs::Manifest armConfig(const Options& o, const std::string& label,
                             std::uint64_t baseSeed) {
  apf::obs::Manifest m;
  m.set("campaign", "apf_estimate");
  m.set("algo", label);
  m.set("n", static_cast<std::uint64_t>(o.n));
  m.set("pattern", o.sc.patternLabel);
  m.set("start", o.sc.startKind);
  m.set("sched", o.sched);
  m.set("base_seed", baseSeed);
  m.set("batch", o.stop.batchSize);
  m.set("min_samples", o.stop.minSamples);
  m.set("max_samples", o.stop.maxSamples);
  m.set("confidence", o.stop.confidence);
  m.set("half_width", o.stop.targetHalfWidth);
  m.set("futility", o.stop.futilityFloor);
  m.set("max_events", o.sc.maxEvents);
  m.set("delta", o.sc.delta);
  m.set("multiplicity", o.sc.multiplicity);
  m.set("chirality", o.sc.commonChirality);
  return m;
}

void printHuman(const apf::est::ArmEstimate& e) {
  using apf::est::Interval;
  const Interval w = apf::est::wilson(e.success, e.confidence);
  const Interval bits = apf::est::empiricalBernstein(e.bits, e.confidence);
  std::printf(
      "arm %-12s %llu/%llu samples in %llu batches, stop=%s%s\n"
      "  success %llu/%llu = %.3f, wilson [%.3f, %.3f] @ %.0f%%\n"
      "  bits mean %.1f, eb [%.1f, %.1f]; cycles mean %.1f; events mean "
      "%.1f\n",
      e.label.c_str(), static_cast<unsigned long long>(e.samples),
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
  args.exitNotes(",\n4 journal lock held by another process");
  args.parse(argc, argv);
  try {
    o.stop.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apf_estimate: %s\n", e.what());
    return 2;
  }
  const auto kind = sched::schedulerFromName(o.sched);
  if (!kind) {
    std::fprintf(stderr, "apf_estimate: unknown scheduler: %s\n",
                 o.sched.c_str());
    return 2;
  }
  o.sc.sched = *kind;
  try {
    o.sc.pattern =
        io::patternByName(o.sc.patternLabel, o.n, o.sc.baseSeed + 1000);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apf_estimate: %s\n", e.what());
    return 2;
  }
  if (const std::string why = sim::validate(o.sc); !why.empty()) {
    std::fprintf(stderr, "apf_estimate: %s\n", why.c_str());
    return 2;
  }
  if (!o.journalPath.empty() && !o.resumePath.empty()) {
    std::fprintf(stderr,
                 "apf_estimate: --journal and --resume are exclusive\n");
    return 2;
  }
  const std::unique_ptr<sim::Algorithm> algo =
      cli::makeAlgorithm(o.sc.algo, o.sc.multiplicity);
  if (algo == nullptr) {
    std::fprintf(stderr, "apf_estimate: unknown algorithm: %s (want %s)\n",
                 o.sc.algo.c_str(), cli::algorithmNames());
    return 2;
  }

  // The trials' base seed is sampleSeed(seed, 0), not --seed itself: the
  // document and the journal key both record it, so keeping it keeps every
  // existing document and journal valid.
  const std::uint64_t baseSeed = sched::sampleSeed(o.sc.baseSeed, 0);
  const obs::Manifest config = armConfig(o, algo->name(), baseSeed);
  const bool resuming = !o.resumePath.empty();
  const std::string jpath = resuming ? o.resumePath : o.journalPath;
  std::unique_ptr<sim::CampaignJournal> journal;
  if (!jpath.empty()) {
    cli::lockJournal("apf_estimate", jpath);
    journal = std::make_unique<sim::CampaignJournal>(
        jpath, config.toJson(), resuming);
  }
  std::unique_ptr<obs::JsonlRecorder> sink;
  if (!o.jsonlPath.empty()) {
    sink = std::make_unique<obs::JsonlRecorder>(o.jsonlPath);
  }

  est::AdaptiveOptions aopts;
  aopts.stop = o.stop;
  aopts.baseSeed = baseSeed;
  aopts.jobs = o.jobs;
  aopts.recorder = sink.get();
  aopts.journal = journal.get();
  const est::ArmEstimate arm =
      est::runAdaptive(algo->name(), est::scenarioTrial(o.sc, *algo), aopts);
  if (sink != nullptr) sink->flush();

  // The apf.estimate.v1 document. No wall-clock, no thread counts:
  // byte-identical across --jobs values and kill/resume.
  obs::JsonObjectWriter top;
  top.field("schema", "apf.estimate.v1");
  top.field("n", static_cast<std::uint64_t>(o.n));
  top.field("pattern", o.sc.patternLabel);
  top.field("start", o.sc.startKind);
  top.field("sched", o.sched);
  top.field("seed", o.sc.baseSeed);
  top.rawField("arm", arm.toJson());
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
    m.merge(config);
    est::appendManifest(arm, m);
    m.write(o.manifestPath);
  }

  if (!o.quiet) printHuman(arm);
  std::printf("%s\n", doc.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "apf_estimate: %s\n", e.what());
  return 1;
}

/// \file apf_sim.cpp
/// Command-line simulator: run any of the library's algorithms on a chosen
/// start/pattern under a chosen adversary, print the run summary, and
/// optionally dump a trajectory SVG and a trace (position CSV, or Chrome
/// trace-event spans when the --trace file ends in .json).
///
/// Usage examples:
///   apf_sim --n 10 --pattern star --sched async --seed 7
///   apf_sim --start symmetric --pattern random --svg run.svg
///   apf_sim --algo yy --no-chirality            # watch the baseline fail
///   apf_sim --start-file my_start.txt --pattern-file my_pattern.txt
///   apf_sim --jsonl run.jsonl --manifest run.manifest.json   # telemetry
///   apf_sim --json                              # one JSON line for scripts
///
/// Supervised campaigns (docs/RESILIENCE.md): --campaign N runs N seeded
/// runs on the campaign pool under watchdog deadlines, bounded retry, and
/// quarantine; --journal/--resume add a crash-safe checkpoint so a killed
/// campaign continues where it stopped and merges bit-identical to an
/// uninterrupted one:
///   apf_sim --campaign 50 --journal c.journal --json > out.json
///   apf_sim --campaign 50 --resume  c.journal --json > out.json
/// --shard I/K runs only slice I of K of the same campaign (sim/shard.h,
/// docs/API.md), one process per slice on any machine; --merge folds the
/// slice journals into one and finishes like --resume, so the merged
/// journal plus the printed --json document are byte-identical to the
/// single-process run's — including after SIGKILLing a slice and re-running
/// it with --resume:
///   apf_sim --campaign 50 --shard 0/2 --journal s0.journal &
///   apf_sim --campaign 50 --shard 1/2 --journal s1.journal; wait
///   apf_sim --campaign 50 --merge s0.journal,s1.journal --journal c.journal
/// Failure repro (sim/shrink.h): --repro-out captures a run's replay
/// coordinates as a self-contained .repro.json (minimized with --shrink),
/// and --replay re-executes one, exiting 0 iff the violation reproduces.

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/classify.h"
#include "core/phases.h"
#include "fault/fault.h"
#include "io/patterns.h"
#include "io/serialize.h"
#include "io/svg.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "sim/engine.h"
#include "sim/shard.h"
#include "sim/shrink.h"
#include "sim/supervisor.h"
#include "sim/trace.h"
#include "algo_select.h"
#include "cli_parse.h"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace {

struct Options {
  /// What the flags describe; a single run is its run 0.
  apf::sim::ShardSpec spec;
  std::uint64_t n = 8;
  std::string patternFile;
  std::string startFile;
  std::string sched = "async";
  std::string svgPath;
  std::string tracePath;
  std::string jsonlPath;
  std::string manifestPath;
  bool json = false;
  bool quiet = false;
  /// Analyze the start configuration (Definitions 1-3) instead of running.
  bool analyze = false;
  // Supervised campaigns (docs/RESILIENCE.md).
  bool campaign = false;           // --campaign N given (N is spec.runs)
  std::string journalPath;         // fresh journal (truncates)
  std::string resumePath;          // resume an existing journal
  std::string quarantinePath;
  // Sharding (sim/shard.h, docs/API.md).
  std::string shard;  // "I/K"; empty = the whole campaign
  std::string merge;  // comma-separated shard journals
  // Failure repro (sim/shrink.h).
  std::string replayPath;
  std::string reproOutPath;
  bool doShrink = false;
};

void registerFlags(apf::cli::ArgParser& args, Options& o) {
  using apf::cli::ArgParser;
  apf::sim::ShardSpec& s = o.spec;
  args.u64("--n", &o.n, "N", "robots (default 8)", nullptr,
           /*positive=*/true);
  args.str("--pattern", &s.patternLabel, "NAME",
           "polygon|star|grid|spiral|ringcore|random|\n"
           "mult|center-mult (default star)");
  args.str("--pattern-file", &o.patternFile, "F",
           "load pattern points from file ('x y' per line)");
  args.str("--start", &s.startKind, "KIND",
           "random|symmetric (default random; symmetric\n"
           "needs an even n >= 4)");
  args.str("--start-file", &o.startFile, "F", "load start points from file");
  args.str("--sched", &o.sched, "S", "fsync|ssync|async (default async)");
  args.str("--algo", &s.algo, "A",
           std::string(apf::cli::algorithmNames()) + " (default form)");
  args.u64("--seed", &s.baseSeed, "S", "RNG seed (default 1)");
  args.num("--delta", &s.delta, ArgParser::Num::NonNegative, "D",
           "adversary min-move distance (default 0.05)");
  args.u64("--max-events", &s.maxEvents, "N", "event cap (default 1e6)");
  args.flag("--multiplicity", &s.multiplicity,
            "enable multiplicity detection");
  args.flag("--chirality", &s.commonChirality,
            "give all robots a common chirality");
  args.str("--svg", &o.svgPath, "FILE", "write trajectory SVG");
  args.str("--trace", &o.tracePath, "FILE",
           "write a position trace CSV; a FILE ending in\n"
           ".json instead captures look/compute/move spans\n"
           "as Chrome trace-event JSON (chrome://tracing)");
  args.str("--jsonl", &o.jsonlPath, "FILE",
           "write structured event log (JSONL; see\n"
           "docs/OBSERVABILITY.md and apf_report)");
  args.str("--manifest", &o.manifestPath, "FILE",
           "write run manifest (reproducibility record)");

  args.section("fault injection (docs/FAULTS.md)");
  args.intNonNegative("--crash", &s.crashF, "F",
                      "crash-stop F random robots (victims/timings\n"
                      "drawn from --fault-seed)");
  args.u64("--crash-horizon", &s.crashHorizon, "N",
           "scheduler-event window for crashes (default\n2000)",
           nullptr, /*positive=*/true);
  args.num("--noise", &s.fault.noiseSigma, ArgParser::Num::NonNegative, "S",
           "Gaussian snapshot noise, std dev S (global\nunits)");
  args.num("--omit", &s.fault.omitProb, ArgParser::Num::Probability, "P",
           "omit each observed robot with probability P");
  args.num("--mult-flip", &s.fault.multFlipProb, ArgParser::Num::Probability,
           "P",
           "flip perceived multiplicity with probability P");
  args.num("--drop", &s.fault.dropProb, ArgParser::Num::Probability, "P",
           "drop a computed path with probability P");
  args.num("--trunc", &s.fault.truncProb, ArgParser::Num::Probability, "P",
           "truncate a computed path with probability P");
  args.u64("--fault-seed", &s.fault.seed, "S",
           "fault RNG stream seed (default: --seed)", &s.faultSeedSet);

  args.section("supervised campaigns (docs/RESILIENCE.md)");
  args.u64("--campaign", &s.runs, "N",
           "run N seeded runs (seeds --seed..+N-1) on the\n"
           "campaign pool under the supervisor; exit 0 iff\n"
           "nothing was quarantined",
           &o.campaign, /*positive=*/true);
  args.str("--journal", &o.journalPath, "F",
           "crash-safe checkpoint journal (fresh file)");
  args.str("--resume", &o.resumePath, "F",
           "resume from journal F (skips completed runs;\n"
           "merges bit-identical to an uninterrupted\ncampaign)");
  args.u64("--watchdog-events", &s.watchdogEvents, "N",
           "per-attempt cycle budget (deterministic;\n"
           "also applies to single runs, exit code 3)");
  args.u64("--watchdog-ms", &s.watchdogMs, "N",
           "per-attempt wall budget (nondeterministic)");
  args.intNonNegative("--retries", &s.retries, "N",
                      "retry budget per run (default 2; attempt 1\n"
                      "reuses the same seed to prove determinism)");
  args.str("--quarantine", &o.quarantinePath, "F",
           "write the supervisor report JSON to F");

  args.section("sharding (sim/shard.h, docs/API.md)");
  args.str("--shard", &o.shard, "I/K",
           "run only slice I of K contiguous slices of the\n"
           "campaign's run indices (needs --journal or\n"
           "--resume)");
  args.str("--merge", &o.merge, "J0,J1,...",
           "merge these shard journals into --journal F,\n"
           "then finish like --resume F (byte-identical\n"
           "to the single-process campaign)");

  args.section("failure repro (sim/shrink.h)");
  args.str("--replay", &o.replayPath, "F",
           "re-execute a .repro.json; exit 0 iff the\n"
           "recorded violation reproduces");
  args.str("--repro-out", &o.reproOutPath, "F",
           "write this run's replay coordinates as a\n"
           "self-contained .repro.json");
  args.flag("--shrink", &o.doShrink,
            "minimize the repro before writing (delta\n"
            "debugging; only with --repro-out)");

  args.section("general");
  args.flag("--json", &o.json,
            "print run manifest + result as one JSON line");
  args.flag("--analyze", &o.analyze,
            "classify the start configuration and exit");
  args.flag("--quiet", &o.quiet, "summary line only");
}

/// Parses "--shard I/K" (slice I of K, 0-based). Exits 2 on garbage.
void parseShard(const std::string& s, unsigned& index, unsigned& count) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    apf::cli::badValue("apf_sim", "--shard", s.c_str(),
                       "INDEX/COUNT (e.g. 0/4)");
  }
  const std::uint64_t i =
      apf::cli::parseU64("apf_sim", "--shard", s.substr(0, slash).c_str());
  const std::uint64_t k =
      apf::cli::parseU64("apf_sim", "--shard", s.substr(slash + 1).c_str());
  if (k == 0 || i >= k || k > 1u << 20) {
    apf::cli::badValue("apf_sim", "--shard", s.c_str(),
                       "INDEX < COUNT (e.g. 0/4)");
  }
  index = static_cast<unsigned>(i);
  count = static_cast<unsigned>(k);
}

/// Takes the journal's advisory `<journal>.lock`, or exits 4 when another
/// process holds it, so two processes never interleave appends. The fd is
/// deliberately leaked: the lock must live exactly as long as the process
/// (the kernel releases it on any exit, including SIGKILL).
void lockJournal(const std::string& journalPath) {
#ifndef _WIN32
  const std::string lockPath = journalPath + ".lock";
  const int fd = ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "apf_sim: cannot open lock %s: %s\n",
                 lockPath.c_str(), std::strerror(errno));
    std::exit(1);
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    std::fprintf(stderr,
                 "apf_sim: journal lock held by another process (%s)\n",
                 lockPath.c_str());
    std::exit(4);
  }
#else
  (void)journalPath;
#endif
}

/// The campaign-describing manifest fields, derived from the wire spec so
/// sharded and in-process manifests cannot differ.
apf::obs::Manifest campaignManifest(const apf::sim::ShardSpec& spec,
                                    const std::string& algoName) {
  apf::obs::Manifest m;
  m.set("campaign", "apf_sim");
  m.set("algo", algoName);
  m.set("n", static_cast<std::uint64_t>(spec.n()));
  m.set("pattern", spec.patternLabel);
  m.set("start", spec.startKind);
  m.set("sched", apf::sched::schedulerName(spec.sched));
  m.set("seed", spec.baseSeed);
  m.set("runs", spec.runs);
  m.set("max_events", spec.maxEvents);
  m.set("delta", spec.delta);
  m.set("multiplicity", spec.multiplicity);
  m.set("chirality", spec.commonChirality);
  m.set("crash_f", spec.crashF);
  m.set("crash_horizon", spec.crashHorizon);
  m.set("fault", apf::fault::toJson(spec.fault));
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace apf;
  Options o;
  cli::ArgParser args(
      "apf_sim",
      "LCM robot simulator for probabilistic asynchronous\n"
      "arbitrary pattern formation (Bramas & Tixeuil, PODC 2016)");
  registerFlags(args, o);
  args.exitNotes(
      ", 3 watchdog expired,\n4 journal lock held by another process");
  args.parse(argc, argv);

  // --replay re-executes a self-contained .repro.json exactly and reports
  // whether the engine's safety monitor sees the recorded violation again. Every run coordinate comes from the file, not the CLI; a
  // file that does not decode to a valid case is a usage error.
  if (!o.replayPath.empty()) {
    sim::ReproCase repro;
    try {
      repro = sim::loadRepro(o.replayPath);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "apf_sim: --replay: %s\n", e.what());
      return 2;
    }
    bool ignoredMult = false;
    const auto replayAlgo = cli::makeAlgorithm(repro.algo, ignoredMult);
    if (replayAlgo == nullptr) {
      std::fprintf(stderr, "apf_sim: repro names unknown algorithm '%s'\n",
                   repro.algo.c_str());
      return 2;
    }
    const sim::ReplayResult r = sim::replay(repro, *replayAlgo);
    const bool ok = r.reproduces(repro);
    std::printf(
        "replay %s: algo=%s n=%zu expect=%s -> %s\n", o.replayPath.c_str(),
        repro.algo.c_str(), repro.n(),
        repro.violationKind.empty() ? "(any violation)"
                                    : repro.violationKind.c_str(),
        ok ? "REPRODUCED" : (r.violated ? "different violation" : "clean"));
    if (r.violated && !o.quiet) std::printf("  %s\n", r.violation.c_str());
    return ok ? 0 : 1;
  }

  sim::ShardSpec& spec = o.spec;
  if (!o.patternFile.empty()) {
    spec.pattern = io::loadConfiguration(o.patternFile);
    spec.patternLabel = o.patternFile;
  } else if (spec.patternLabel == "mult") {
    spec.pattern = io::multiplicityPattern(o.n);
    spec.multiplicity = true;
  } else if (spec.patternLabel == "center-mult") {
    spec.pattern = io::centerMultiplicityPattern(o.n);
    spec.multiplicity = true;
  } else {
    spec.pattern =
        io::patternByName(spec.patternLabel, o.n, spec.baseSeed + 1000);
  }
  if (!o.startFile.empty()) {
    spec.startKind = "points";
    spec.start = io::loadConfiguration(o.startFile);
  }
  if (!spec.faultSeedSet) spec.fault.seed = spec.baseSeed;
  if (const std::string why = sim::validate(spec); !why.empty()) {
    std::fprintf(stderr, "apf_sim: %s\n", why.c_str());
    return 2;
  }
  const config::Configuration start = sim::startFor(spec, spec.baseSeed);
  if (o.analyze) {
    const auto report = config::classify(start);
    std::printf("%s", report.describe().c_str());
    return 0;
  }

  // Algorithm.
  std::unique_ptr<sim::Algorithm> algo =
      cli::makeAlgorithm(spec.algo, spec.multiplicity);
  if (algo == nullptr) {
    std::fprintf(stderr, "unknown algorithm: %s (want %s)\n",
                 spec.algo.c_str(), cli::algorithmNames());
    return 2;
  }

  const auto kind = sched::schedulerFromName(o.sched);
  if (!kind) {
    std::fprintf(stderr, "unknown scheduler: %s\n", o.sched.c_str());
    return 2;
  }
  spec.sched = *kind;

  // A single run is run 0 of the spec: the same engine options and fault
  // plan (empty by default — the engine is then bit-identical to a
  // fault-free build). Crash victims/timings are drawn here so the summary
  // and manifest record the concrete plan, not just "F crashes".
  sim::EngineOptions opts = sim::engineOptions(spec, spec.baseSeed);
  std::unique_ptr<obs::JsonlRecorder> sink;
  if (!o.jsonlPath.empty()) {
    sink = std::make_unique<obs::JsonlRecorder>(o.jsonlPath);
    opts.recorder = sink.get();
  }
  opts.collectTimings =
      !o.jsonlPath.empty() || !o.manifestPath.empty() || o.json;

  // ------------------------------------------------ supervised campaign --
  if (o.campaign) {
    // The spec's canonical JSON is the journal config key: resuming with
    // ANY different option is a different experiment and must be refused,
    // not silently merged — and every shard journal of this campaign
    // carries the byte-identical key, so slices merge into one journal.
    const std::string configKey = sim::shardConfigKey(spec);
    const bool resuming = !o.resumePath.empty();
    const std::string jpath = resuming ? o.resumePath : o.journalPath;
    sim::ShardRange range{0, spec.runs};
    if (!o.shard.empty()) {
      if (jpath.empty() || !o.merge.empty()) {
        std::fprintf(stderr,
                     "apf_sim: --shard needs --journal F (fresh) or "
                     "--resume F, and excludes --merge\n");
        return 2;
      }
      unsigned index = 0;
      unsigned count = 1;
      parseShard(o.shard, index, count);
      range = sim::shardRange(spec.runs, index, count);
    }
    if (!o.merge.empty() && (o.journalPath.empty() || resuming)) {
      std::fprintf(stderr,
                   "apf_sim: --merge needs --journal F (the merged journal) "
                   "and excludes --resume\n");
      return 2;
    }

    const sim::SupervisorOptions sopts =
        sim::shardSupervisorOptions(spec, sink.get());
    std::unique_ptr<sim::CampaignJournal> journal;
    if (!jpath.empty()) {
      lockJournal(jpath);
      if (!o.merge.empty()) {
        std::vector<std::string> shardJournals;
        std::istringstream list(o.merge);
        for (std::string path; std::getline(list, path, ',');) {
          shardJournals.push_back(path);
        }
        try {
          sim::mergeShardJournals(spec, shardJournals, jpath);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "apf_sim: --merge: %s\n", e.what());
          return 2;
        }
      }
      // After a merge this is exactly --resume: every merged run replays
      // and only runs no shard journaled execute here.
      journal = std::make_unique<sim::CampaignJournal>(
          jpath, configKey, resuming || !o.merge.empty());
    }
    std::vector<std::string> payloads(spec.runs);
    const sim::SupervisorReport report =
        sim::runShard(spec, *algo, range.lo, range.hi, journal.get(),
                      sink.get(), /*jobs=*/0, /*stats=*/nullptr, &payloads);

    if (!o.quarantinePath.empty()) report.write(o.quarantinePath);
    if (!o.manifestPath.empty()) {
      obs::Manifest m;
      obs::addBuildInfo(m);
      m.set("tool", "apf_sim.campaign");
      m.merge(campaignManifest(spec, algo->name()));
      // The resume-invariant variant: fresh-vs-replayed collapses into
      // supervisor.finished, so this manifest is byte-identical for
      // uninterrupted, resumed, and merged executions of the same spec.
      sim::appendManifestInvariant(sopts, report, m);
      m.write(o.manifestPath);
    }

    std::map<std::string, int> outcomes;
    for (const std::string& p : payloads) {
      if (p.empty()) continue;  // quarantined run: no payload
      const auto obj = obs::parseFlatObject(p);
      if (!obj) continue;
      const auto it = obj->find("outcome");
      if (it != obj->end()) outcomes[it->second.asString("?")] += 1;
    }

    if (o.json) {
      // Deliberately free of wall-clock fields AND of the fresh-vs-replayed
      // split (only their sum is invariant): a resumed campaign must print
      // a document byte-identical to an uninterrupted one's — the CI
      // kill-and-resume check diffs them directly, and the shard drill
      // diffs a merge of 4 shard processes against APF_JOBS=1. The split
      // lives in the human output and the --quarantine report.
      obs::JsonObjectWriter top;
      top.field("schema", "apf.campaign.v1");
      top.field("runs", spec.runs);
      top.field("finished", report.completed + report.replayed);
      top.field("retries", report.retries);
      top.field("quarantined", report.quarantined);
      obs::JsonObjectWriter byOutcome;
      for (const auto& [name, count] : outcomes) {
        byOutcome.field(name, count);
      }
      top.rawField("outcomes", byOutcome.str());
      std::string rows;
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (i) rows += ',';
        rows += payloads[i].empty() ? "null" : payloads[i];
      }
      top.rawField("results", "[" + rows + "]");
      std::printf("%s\n", top.str().c_str());
    } else {
      std::printf(
          "campaign: %llu runs  algo=%s n=%zu sched=%s seeds=%llu..%llu%s\n"
          "  completed=%llu replayed=%llu retries=%llu quarantined=%llu\n",
          static_cast<unsigned long long>(spec.runs), algo->name().c_str(),
          spec.n(), o.sched.c_str(),
          static_cast<unsigned long long>(spec.baseSeed),
          static_cast<unsigned long long>(spec.baseSeed + spec.runs - 1),
          o.shard.empty() ? "" : (" shard=" + o.shard).c_str(),
          static_cast<unsigned long long>(report.completed),
          static_cast<unsigned long long>(report.replayed),
          static_cast<unsigned long long>(report.retries),
          static_cast<unsigned long long>(report.quarantined));
      std::printf("  outcomes:");
      for (const auto& [name, count] : outcomes) {
        std::printf("  %s=%d", name.c_str(), count);
      }
      std::printf("\n");
      if (journal != nullptr) {
        std::printf("  journal: %s (%zu entries%s)\n",
                    journal->path().c_str(), journal->completedCount(),
                    journal->recoveredTornLine() ? ", recovered torn tail"
                                                 : "");
      }
      for (const sim::QuarantinedItem& q : report.quarantine) {
        std::printf("  quarantined run %zu%s: %s\n", q.index,
                    q.deterministic ? " (deterministic)" : "",
                    q.attempts.empty() ? "?"
                                       : q.attempts.back().message.c_str());
      }
    }
    return report.allCompleted() ? 0 : 1;
  }

  // --trace dispatches on extension: .json = Chrome trace-event spans,
  // anything else = the legacy position CSV.
  const bool chromeTrace =
      o.tracePath.size() >= 5 &&
      o.tracePath.compare(o.tracePath.size() - 5, 5, ".json") == 0;

  // Single runs honor the watchdog flags too: a cycle budget makes a
  // suspected livelock reproducible ("times out at event N" is a fact, not
  // a wall-clock accident).
  sim::Watchdog watchdog(spec.watchdogEvents,
                         spec.watchdogMs * 1'000'000ull);
  if (spec.watchdogEvents != 0 || spec.watchdogMs != 0) {
    opts.watchdog = &watchdog;
  }

  sim::Engine engine(start, spec.pattern, *algo, opts);
  sim::Trace trace;
  if (!o.svgPath.empty() || (!o.tracePath.empty() && !chromeTrace)) {
    trace.attach(engine);
  }

  std::unique_ptr<obs::SpanCollector> spans;
  if (chromeTrace) {
    spans = std::make_unique<obs::SpanCollector>();
    spans->install();
  }
  sim::RunResult res;
  try {
    res = engine.run();
  } catch (const sim::WatchdogExpired& e) {
    if (spans != nullptr) obs::SpanCollector::uninstall();
    std::fprintf(stderr, "apf_sim: %s\n", e.what());
    return 3;
  }
  if (spans != nullptr) {
    obs::SpanCollector::uninstall();
    spans->writeChromeTrace(o.tracePath);
  }

  obs::Manifest manifest =
      sim::describeRun(opts, algo->name(), spec.patternLabel, start.size());
  sim::appendResult(manifest, res);
  if (!o.manifestPath.empty()) manifest.write(o.manifestPath);

  if (o.json) {
    std::printf("%s\n", manifest.toJson().c_str());
  } else {
    std::printf(
        "algo=%s n=%zu sched=%s seed=%llu  terminated=%s success=%s "
        "outcome=%s  cycles=%llu bits=%llu distance=%.2f\n",
        algo->name().c_str(), start.size(), o.sched.c_str(),
        static_cast<unsigned long long>(spec.baseSeed),
        res.terminated ? "yes" : "no", res.success ? "yes" : "no",
        sim::outcomeName(res.outcome),
        static_cast<unsigned long long>(res.metrics.cycles),
        static_cast<unsigned long long>(res.metrics.randomBits),
        res.metrics.distance);
    if (opts.fault.active()) {
      std::printf("  faults: crashed=%llu injected=%llu\n",
                  static_cast<unsigned long long>(res.metrics.crashed),
                  static_cast<unsigned long long>(res.metrics.faultsInjected));
    }
    if (!o.quiet) {
      for (const auto& [tag, cnt] : res.metrics.phaseActivations) {
        std::printf("  %-16s %llu\n", core::phaseName(tag),
                    static_cast<unsigned long long>(cnt));
      }
    }
  }

  // --repro-out: capture this run's exact replay coordinates. The case is
  // replayed first; when its safety record shows a violation, the kind is
  // pinned (and --shrink minimizes the case) so
  // `apf_sim --replay` asserts the same invariant breaks again.
  if (!o.reproOutPath.empty()) {
    sim::ReproCase repro = sim::reproOf(spec, start, opts.seed,
                                        opts.sched.earlyStopProb, opts.fault);
    const sim::ReplayResult probe = sim::replay(repro, *algo);
    if (probe.violated) {
      repro.violationKind = probe.violationKind;
      if (o.doShrink) {
        const sim::ShrinkResult sr = sim::shrink(repro, *algo);
        std::fprintf(stderr,
                     "apf_sim: shrink: %d probes, removed %zu robots and "
                     "%zu crash entries, cleared %d fault knobs\n",
                     sr.probes, sr.robotsRemoved, sr.crashesRemoved,
                     sr.knobsCleared);
        repro = sr.minimized;
      }
      sim::saveRepro(o.reproOutPath, repro);
      std::fprintf(stderr, "apf_sim: wrote %s (%s, n=%zu, %zu crash entries)\n",
                   o.reproOutPath.c_str(), repro.violationKind.c_str(),
                   repro.n(), repro.fault.crashes.size());
    } else {
      sim::saveRepro(o.reproOutPath, repro);
      std::fprintf(stderr,
                   "apf_sim: wrote %s (no safety violation; repro records "
                   "the run coordinates only)\n",
                   o.reproOutPath.c_str());
    }
  }

  if (!o.tracePath.empty() && !chromeTrace) trace.writeCsv(o.tracePath);
  if (!o.svgPath.empty()) {
    io::SvgScene scene;
    for (auto& t : trace.trails()) scene.addTrail(std::move(t));
    scene.addLayer({start, "#999", 0.05, true});
    scene.addLayer({engine.positions(), "#1f77b4", 0.06, false});
    scene.write(o.svgPath);
  }
  return res.success ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "apf_sim: %s\n", e.what());
  return 1;
}

/// \file apf_report.cpp
/// Telemetry aggregator: ingests run manifests (`*.manifest.json`) and
/// structured event logs (`*.jsonl`) from a directory and prints
///  * success rates and run-cost statistics grouped by (algo, sched, n),
///  * random-bit accounting (the paper's one-bit-per-cycle claim),
///  * per-phase activation and wall-time breakdowns, with the share of
///    Compute activations the engine answered by reuse,
///  * fault-injection accounting (run outcomes, injected faults by kind;
///    docs/FAULTS.md),
///  * supervisor resilience accounting (`supervisor.*` manifest keys:
///    retries, quarantine, timeout kinds; docs/RESILIENCE.md) plus a
///    listing of minimized counterexamples (`*.repro.json`; sim/shrink.h),
///  * event-log statistics (event counts by kind, snapshot staleness),
///  * a cross-check that event-log per-phase totals match the manifests'
///    `Metrics::phaseActivations` numbers, and that fault/crash event
///    counts match the manifests' `result.faults_injected`/`result.crashed`.
///
/// Produce inputs with either
///   apf_sim --jsonl run.jsonl --manifest run.manifest.json ...
/// or, for whole benchmark campaigns,
///   APF_OBS_DIR=obsout [APF_OBS_EVENTS=1] ./build/bench/bench_randbits
/// and then:
///   apf_report obsout            # human tables
///   apf_report --json obsout     # one machine-readable JSON object

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/phases.h"
#include "est/estimators.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/stats.h"
#include "sim/shrink.h"
#include "cli/env.h"
#include "cli_parse.h"

namespace fs = std::filesystem;
using apf::obs::JsonObject;
using apf::obs::JsonValue;

namespace {

double num(const JsonObject& obj, const char* key, double fallback = 0.0) {
  const auto it = obj.find(key);
  return it == obj.end() ? fallback : it->second.asNumber(fallback);
}

std::string str(const JsonObject& obj, const char* key,
                const std::string& fallback = "?") {
  const auto it = obj.find(key);
  return it == obj.end() ? fallback : it->second.asString(fallback);
}

bool boolean(const JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.asBool(false);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(q * (xs.size() - 1));
  return xs[idx];
}

/// Statistics accumulated per (algo, sched, n) manifest group.
struct Group {
  int runs = 0;
  int successes = 0;
  int terminated = 0;
  std::vector<double> bits;
  std::vector<double> cycles;
  std::vector<double> events;
  std::vector<double> distance;
  double bitsPerCycleMax = 0.0;
  std::uint64_t electionRounds = 0;
};

/// Whole-directory aggregation.
struct Report {
  std::map<std::string, Group> groups;  // key: algo|sched|n
  // Per-phase totals from manifests.
  std::map<int, std::uint64_t> phaseActivations;
  std::map<int, std::uint64_t> phaseNanos;
  std::uint64_t computesReused = 0;  // sum of result.computes_reused
  std::uint64_t totalBits = 0;
  std::uint64_t totalCycles = 0;
  // Fault accounting from manifests (docs/FAULTS.md).
  int faultRuns = 0;  // manifests with fault.active=true
  std::map<std::string, int> outcomes;  // result.outcome tallies
  std::uint64_t manifestFaultsInjected = 0;  // sum of result.faults_injected
  std::uint64_t manifestCrashed = 0;         // sum of result.crashed
  // Event-log aggregation.
  std::map<std::string, std::uint64_t> eventsByKind;
  std::map<int, std::uint64_t> computeByPhase;  // from compute events
  std::map<std::string, std::uint64_t> faultsByKind;  // fault_injected "fault"
  std::uint64_t eventLogFaults = 0;   // fault_injected event count
  std::uint64_t eventLogCrashes = 0;  // robot_crashed event count
  std::uint64_t eventLogBits = 0;
  std::uint64_t eventLogElections = 0;
  std::vector<double> staleness;
  std::uint64_t jsonlFiles = 0;
  std::uint64_t badLines = 0;
  // Supervisor telemetry (`supervisor.*` manifest keys; sim/supervisor.h
  // and docs/RESILIENCE.md).
  int supervisorManifests = 0;
  std::uint64_t supItems = 0;
  std::uint64_t supFinished = 0;
  std::uint64_t supRetries = 0;
  std::uint64_t supQuarantined = 0;
  std::uint64_t supTimeoutsCycle = 0;
  std::uint64_t supTimeoutsWall = 0;
  std::uint64_t supExceptions = 0;
  // Minimized counterexamples (`*.repro.json`; sim/shrink.h).
  struct ReproInfo {
    std::string file;
    std::string algo;
    std::string kind;
    std::size_t robots = 0;
    std::size_t crashes = 0;
  };
  std::vector<ReproInfo> repros;
  // Adaptive-estimation manifests (`est.*` keys; est/adaptive.h and
  // docs/STATISTICS.md). One entry per arm found in a manifest.
  struct EstimateInfo {
    std::string label;
    std::string stopReason;
    bool converged = false;
    std::uint64_t samples = 0;
    std::uint64_t batches = 0;
    std::uint64_t maxSamples = 0;
    double confidence = 0.0;
    double successRate = 0.0;
    double wilsonLo = 0.0;
    double wilsonHi = 1.0;
    double bitsMean = 0.0;
    double bitsEbLo = 0.0;
    double bitsEbHi = 0.0;
  };
  std::vector<EstimateInfo> estimates;
};

void ingestManifest(const fs::path& path, Report& rep) {
  const JsonObject m = apf::obs::loadFlatJsonFile(path.string());
  if (m.count("supervisor.items") != 0) {
    // Supervised-campaign manifest (sim::appendManifest).
    rep.supervisorManifests += 1;
    rep.supItems += static_cast<std::uint64_t>(num(m, "supervisor.items"));
    rep.supFinished +=
        static_cast<std::uint64_t>(num(m, "supervisor.finished"));
    rep.supRetries +=
        static_cast<std::uint64_t>(num(m, "supervisor.retries"));
    rep.supQuarantined +=
        static_cast<std::uint64_t>(num(m, "supervisor.quarantined"));
    rep.supTimeoutsCycle +=
        static_cast<std::uint64_t>(num(m, "supervisor.timeouts_cycle"));
    rep.supTimeoutsWall +=
        static_cast<std::uint64_t>(num(m, "supervisor.timeouts_wall"));
    rep.supExceptions +=
        static_cast<std::uint64_t>(num(m, "supervisor.exceptions"));
  }
  // An adaptive-estimation arm (est::appendManifest).
  if (m.count("est.samples") != 0) {
    Report::EstimateInfo info;
    info.label = str(m, "est.label", "?");
    info.stopReason = str(m, "est.stop_reason", "?");
    info.converged = boolean(m, "est.converged");
    info.samples = static_cast<std::uint64_t>(num(m, "est.samples"));
    info.batches = static_cast<std::uint64_t>(num(m, "est.batches"));
    info.maxSamples = static_cast<std::uint64_t>(num(m, "est.max_samples"));
    info.confidence = num(m, "est.confidence");
    info.successRate = num(m, "est.success_rate");
    info.wilsonLo = num(m, "est.wilson_lo");
    info.wilsonHi = num(m, "est.wilson_hi", 1.0);
    info.bitsMean = num(m, "est.bits_mean");
    info.bitsEbLo = num(m, "est.bits_eb_lo");
    info.bitsEbHi = num(m, "est.bits_eb_hi");
    rep.estimates.push_back(std::move(info));
  }
  if (m.count("result.success") == 0) return;  // table manifest, not a run
  const std::string key = str(m, "algo") + " | " + str(m, "sched.kind") +
                          " | n=" + std::to_string(
                                        static_cast<long>(num(m, "n")));
  Group& g = rep.groups[key];
  g.runs += 1;
  g.successes += boolean(m, "result.success") ? 1 : 0;
  g.terminated += boolean(m, "result.terminated") ? 1 : 0;
  const double bits = num(m, "result.random_bits");
  const double cycles = num(m, "result.cycles");
  g.bits.push_back(bits);
  g.cycles.push_back(cycles);
  g.events.push_back(num(m, "result.events"));
  g.distance.push_back(num(m, "result.distance"));
  if (cycles > 0) {
    g.bitsPerCycleMax = std::max(g.bitsPerCycleMax, bits / cycles);
  }
  g.electionRounds +=
      static_cast<std::uint64_t>(num(m, "result.election_rounds"));
  rep.computesReused +=
      static_cast<std::uint64_t>(num(m, "result.computes_reused"));
  rep.totalBits += static_cast<std::uint64_t>(bits);
  rep.totalCycles += static_cast<std::uint64_t>(cycles);

  rep.outcomes[str(m, "result.outcome", "?")] += 1;
  if (boolean(m, "fault.active")) rep.faultRuns += 1;
  rep.manifestFaultsInjected +=
      static_cast<std::uint64_t>(num(m, "result.faults_injected"));
  rep.manifestCrashed += static_cast<std::uint64_t>(num(m, "result.crashed"));

  for (const auto& [k, v] : m) {
    // result.phase.<tag>.activations / result.phase.<tag>.ns
    constexpr const char* kPrefix = "result.phase.";
    if (k.rfind(kPrefix, 0) != 0) continue;
    const std::size_t tagStart = std::strlen(kPrefix);
    const std::size_t tagEnd = k.find('.', tagStart);
    if (tagEnd == std::string::npos) continue;
    const int tag = std::atoi(k.substr(tagStart, tagEnd - tagStart).c_str());
    const auto amount = static_cast<std::uint64_t>(v.asNumber(0.0));
    if (k.compare(tagEnd, std::string::npos, ".activations") == 0) {
      rep.phaseActivations[tag] += amount;
    } else if (k.compare(tagEnd, std::string::npos, ".ns") == 0) {
      rep.phaseNanos[tag] += amount;
    }
  }
}

void ingestJsonl(const fs::path& path, Report& rep) {
  std::ifstream is(path);
  if (!is) {
    std::fprintf(stderr, "apf_report: cannot open %s\n",
                 path.string().c_str());
    return;
  }
  rep.jsonlFiles += 1;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto obj = apf::obs::parseFlatObject(line);
    if (!obj) {
      rep.badLines += 1;
      continue;
    }
    const std::string kind = str(*obj, "ev");
    rep.eventsByKind[kind] += 1;
    if (kind == "compute") {
      rep.computeByPhase[static_cast<int>(num(*obj, "phase"))] += 1;
      rep.eventLogBits += static_cast<std::uint64_t>(num(*obj, "bits"));
      rep.staleness.push_back(num(*obj, "stale"));
    } else if (kind == "election_round") {
      rep.eventLogElections += 1;
    } else if (kind == "fault_injected") {
      rep.eventLogFaults += 1;
      rep.faultsByKind[str(*obj, "fault", "?")] += 1;
    } else if (kind == "robot_crashed") {
      rep.eventLogCrashes += 1;
    }
  }
}

void ingestRepro(const fs::path& path, Report& rep) {
  apf::sim::ReproCase c;
  try {
    c = apf::sim::loadRepro(path.string());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apf_report: skipping %s: %s\n",
                 path.string().c_str(), e.what());
    return;
  }
  Report::ReproInfo info;
  info.file = path.filename().string();
  info.algo = c.algo;
  info.kind = c.violationKind.empty() ? "(unpinned)" : c.violationKind;
  info.robots = c.n();
  info.crashes = c.fault.crashes.size();
  rep.repros.push_back(std::move(info));
}

/// Wilson interval on a group's success rate at `confidence`
/// (est/estimators.h — the same arithmetic the adaptive driver stops on).
apf::est::Interval groupWilson(const Group& g, double confidence) {
  apf::est::BernoulliSummary s;
  s.trials = static_cast<std::uint64_t>(g.runs);
  s.successes = static_cast<std::uint64_t>(g.successes);
  return apf::est::wilson(s, confidence);
}

void printGroups(const Report& rep, double confidence) {
  std::printf("== runs (from %zu-group manifest set) ==\n",
              rep.groups.size());
  std::printf("%-40s %5s %9s %15s %9s %9s %11s %11s %9s\n", "group", "runs",
              "success", "wilson", "bits_mean", "bits_p95", "cycles_mean",
              "events_mean", "b/c_max");
  for (const auto& [key, g] : rep.groups) {
    const apf::est::Interval w = groupWilson(g, confidence);
    std::printf(
        "%-40s %5d %6d/%-2d [%5.3f,%5.3f] %9.1f %9.0f %11.0f %11.0f %9.3f\n",
        key.c_str(), g.runs, g.successes, g.runs, w.lo, w.hi, mean(g.bits),
        percentile(g.bits, 0.95), mean(g.cycles), mean(g.events),
        g.bitsPerCycleMax);
  }
  int runs = 0, ok = 0;
  for (const auto& [key, g] : rep.groups) {
    runs += g.runs;
    ok += g.successes;
  }
  if (runs > 0) {
    std::printf("overall: %d/%d succeeded (%.1f%%)\n", ok, runs,
                100.0 * ok / runs);
  }
}

void printBits(const Report& rep) {
  std::printf("\n== random-bit accounting ==\n");
  std::uint64_t elections = 0;
  for (const auto& [key, g] : rep.groups) elections += g.electionRounds;
  std::printf("total algorithm bits: %llu over %llu cycles",
              static_cast<unsigned long long>(rep.totalBits),
              static_cast<unsigned long long>(rep.totalCycles));
  if (rep.totalCycles > 0) {
    std::printf("  (%.4f bits/cycle)",
                static_cast<double>(rep.totalBits) /
                    static_cast<double>(rep.totalCycles));
  }
  std::printf("\nelection rounds (one bit each): %llu\n",
              static_cast<unsigned long long>(elections));
}

void printPhases(const Report& rep) {
  if (rep.phaseActivations.empty()) return;
  std::printf("\n== per-phase breakdown (manifests) ==\n");
  std::uint64_t total = 0, totalNs = 0;
  for (const auto& [tag, n] : rep.phaseActivations) total += n;
  for (const auto& [tag, ns] : rep.phaseNanos) totalNs += ns;
  std::printf("%-18s %12s %7s %12s %7s\n", "phase", "activations", "share",
              "wall_ms", "share");
  for (const auto& [tag, n] : rep.phaseActivations) {
    const auto nsIt = rep.phaseNanos.find(tag);
    const std::uint64_t ns =
        nsIt == rep.phaseNanos.end() ? 0 : nsIt->second;
    std::printf("%-18s %12llu %6.1f%% %12.2f %6.1f%%\n",
                apf::core::phaseName(tag),
                static_cast<unsigned long long>(n),
                total > 0 ? 100.0 * static_cast<double>(n) /
                                static_cast<double>(total)
                          : 0.0,
                static_cast<double>(ns) / 1e6,
                totalNs > 0 ? 100.0 * static_cast<double>(ns) /
                                  static_cast<double>(totalNs)
                            : 0.0);
  }
  // Reused Computes are counted in the activations above; they never
  // called the algorithm (sim/metrics.h, Metrics::computesReused).
  std::printf("computes reused: %llu of %llu\n",
              static_cast<unsigned long long>(rep.computesReused),
              static_cast<unsigned long long>(total));
}

void printFaults(const Report& rep) {
  if (rep.faultRuns == 0 && rep.eventLogFaults == 0 &&
      rep.eventLogCrashes == 0) {
    return;  // fault-free telemetry: keep the report unchanged
  }
  std::printf("\n== fault injection (docs/FAULTS.md) ==\n");
  std::printf("fault-active runs: %d\n", rep.faultRuns);
  std::printf("run outcomes:");
  for (const auto& [name, n] : rep.outcomes) {
    std::printf("  %s=%d", name.c_str(), n);
  }
  std::printf("\ninjected faults: %llu; crashed robots: %llu (manifests)\n",
              static_cast<unsigned long long>(rep.manifestFaultsInjected),
              static_cast<unsigned long long>(rep.manifestCrashed));
  if (!rep.faultsByKind.empty()) {
    std::printf("injected by kind (event logs):\n");
    for (const auto& [kind, n] : rep.faultsByKind) {
      std::printf("  %-18s %12llu\n", kind.c_str(),
                  static_cast<unsigned long long>(n));
    }
  }
}

void printSupervisor(const Report& rep) {
  if (rep.supervisorManifests == 0 && rep.repros.empty()) return;
  std::printf("\n== supervisor (docs/RESILIENCE.md) ==\n");
  if (rep.supervisorManifests > 0) {
    std::printf(
        "manifests: %d; items: %llu (finished %llu)\n"
        "retries: %llu; quarantined: %llu\n"
        "failures by kind: timeout_cycles=%llu timeout_wall=%llu "
        "exception=%llu\n",
        rep.supervisorManifests,
        static_cast<unsigned long long>(rep.supItems),
        static_cast<unsigned long long>(rep.supFinished),
        static_cast<unsigned long long>(rep.supRetries),
        static_cast<unsigned long long>(rep.supQuarantined),
        static_cast<unsigned long long>(rep.supTimeoutsCycle),
        static_cast<unsigned long long>(rep.supTimeoutsWall),
        static_cast<unsigned long long>(rep.supExceptions));
  }
  if (!rep.repros.empty()) {
    std::printf("minimized counterexamples (*.repro.json):\n");
    for (const auto& r : rep.repros) {
      std::printf("  %-32s %-10s algo=%s n=%zu crashes=%zu\n",
                  r.file.c_str(), r.kind.c_str(), r.algo.c_str(), r.robots,
                  r.crashes);
    }
  }
}

void printEstimates(const Report& rep) {
  if (rep.estimates.empty()) return;
  std::printf("\n== adaptive estimation (docs/STATISTICS.md) ==\n");
  std::printf("%-24s %9s %7s %11s %9s %15s %9s\n", "arm", "samples",
              "batches", "stop", "rate", "wilson", "bits_mean");
  for (const auto& e : rep.estimates) {
    std::printf(
        "%-24s %5llu/%-3llu %7llu %11s %9.3f [%5.3f,%5.3f] %9.1f\n",
        e.label.c_str(), static_cast<unsigned long long>(e.samples),
        static_cast<unsigned long long>(e.maxSamples),
        static_cast<unsigned long long>(e.batches), e.stopReason.c_str(),
        e.successRate, e.wilsonLo, e.wilsonHi, e.bitsMean);
  }
}

void printEventLogs(const Report& rep) {
  if (rep.jsonlFiles == 0) return;
  std::printf("\n== event logs (%llu files) ==\n",
              static_cast<unsigned long long>(rep.jsonlFiles));
  for (const auto& [kind, n] : rep.eventsByKind) {
    std::printf("%-18s %12llu\n", kind.c_str(),
                static_cast<unsigned long long>(n));
  }
  if (rep.badLines > 0) {
    std::printf("WARNING: %llu malformed lines skipped\n",
                static_cast<unsigned long long>(rep.badLines));
  }
  if (!rep.staleness.empty()) {
    std::printf(
        "snapshot staleness (config versions): mean=%.2f p50=%.0f "
        "p95=%.0f max=%.0f\n",
        mean(rep.staleness), percentile(rep.staleness, 0.50),
        percentile(rep.staleness, 0.95),
        *std::max_element(rep.staleness.begin(), rep.staleness.end()));
  }
  std::printf("bits from compute events: %llu; election rounds: %llu\n",
              static_cast<unsigned long long>(rep.eventLogBits),
              static_cast<unsigned long long>(rep.eventLogElections));
}

/// Returns false on mismatch. Only meaningful when every manifest in the
/// directory has a sibling event log (APF_OBS_EVENTS=1 campaigns).
/// `verbose` prints the per-phase table (off in --json mode, where the
/// verdict lands in the document instead).
bool crossCheck(const Report& rep, bool verbose) {
  if (rep.jsonlFiles == 0) return true;
  if (rep.phaseActivations.empty() && rep.supervisorManifests == 0 &&
      rep.estimates.empty() && rep.faultRuns == 0 &&
      rep.eventLogFaults == 0 && rep.eventLogCrashes == 0) {
    return true;  // nothing to reconcile against the event logs
  }
  if (verbose) {
    std::printf(
        "\n== cross-check: event log vs Metrics::phaseActivations ==\n");
  }
  bool allOk = true;
  for (const auto& [tag, n] : rep.phaseActivations) {
    const auto it = rep.computeByPhase.find(tag);
    const std::uint64_t fromEvents =
        it == rep.computeByPhase.end() ? 0 : it->second;
    const bool ok = fromEvents == n;
    allOk = allOk && ok;
    if (verbose) {
      std::printf("%-18s manifests=%llu events=%llu %s\n",
                  apf::core::phaseName(tag),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(fromEvents),
                  ok ? "OK" : "MISMATCH");
    }
  }
  // Supervisor accounting: every quarantined item and every retry appears
  // exactly once in the event stream (sim/supervisor.h merge-thread
  // contract), so manifest tallies and event counts must agree.
  if (rep.supervisorManifests > 0 && rep.jsonlFiles > 0) {
    auto count = [&](const char* kind) -> std::uint64_t {
      const auto it = rep.eventsByKind.find(kind);
      return it == rep.eventsByKind.end() ? 0 : it->second;
    };
    const bool quarOk = count("run_quarantined") == rep.supQuarantined;
    const bool retryOk = count("run_retried") == rep.supRetries;
    allOk = allOk && quarOk && retryOk;
    if (verbose) {
      std::printf("%-18s manifests=%llu events=%llu %s\n", "quarantined",
                  static_cast<unsigned long long>(rep.supQuarantined),
                  static_cast<unsigned long long>(count("run_quarantined")),
                  quarOk ? "OK" : "MISMATCH");
      std::printf("%-18s manifests=%llu events=%llu %s\n", "retries",
                  static_cast<unsigned long long>(rep.supRetries),
                  static_cast<unsigned long long>(count("run_retried")),
                  retryOk ? "OK" : "MISMATCH");
    }
  }
  // Estimation accounting: the adaptive driver emits exactly one
  // batch_scheduled event per batch it commits to and one
  // estimate_converged per arm that stopped early (est/adaptive.h), so
  // event counts must match the manifests' `est.*` tallies.
  if (!rep.estimates.empty() && rep.jsonlFiles > 0) {
    auto count = [&](const char* kind) -> std::uint64_t {
      const auto it = rep.eventsByKind.find(kind);
      return it == rep.eventsByKind.end() ? 0 : it->second;
    };
    std::uint64_t batches = 0;
    std::uint64_t converged = 0;
    for (const auto& e : rep.estimates) {
      batches += e.batches;
      converged += e.converged ? 1 : 0;
    }
    const bool batchOk = count("batch_scheduled") == batches;
    const bool convOk = count("estimate_converged") == converged;
    allOk = allOk && batchOk && convOk;
    if (verbose) {
      std::printf("%-18s manifests=%llu events=%llu %s\n", "est_batches",
                  static_cast<unsigned long long>(batches),
                  static_cast<unsigned long long>(count("batch_scheduled")),
                  batchOk ? "OK" : "MISMATCH");
      std::printf("%-18s manifests=%llu events=%llu %s\n", "est_converged",
                  static_cast<unsigned long long>(converged),
                  static_cast<unsigned long long>(
                      count("estimate_converged")),
                  convOk ? "OK" : "MISMATCH");
    }
  }
  // Fault accounting must agree too: every injected fault and every crash
  // appears exactly once in the event stream (obs/event.h contract).
  if (rep.faultRuns > 0 || rep.eventLogFaults > 0 || rep.eventLogCrashes > 0) {
    const bool faultsOk = rep.eventLogFaults == rep.manifestFaultsInjected;
    const bool crashesOk = rep.eventLogCrashes == rep.manifestCrashed;
    allOk = allOk && faultsOk && crashesOk;
    if (verbose) {
      std::printf("%-18s manifests=%llu events=%llu %s\n", "faults_injected",
                  static_cast<unsigned long long>(rep.manifestFaultsInjected),
                  static_cast<unsigned long long>(rep.eventLogFaults),
                  faultsOk ? "OK" : "MISMATCH");
      std::printf("%-18s manifests=%llu events=%llu %s\n", "robots_crashed",
                  static_cast<unsigned long long>(rep.manifestCrashed),
                  static_cast<unsigned long long>(rep.eventLogCrashes),
                  crashesOk ? "OK" : "MISMATCH");
    }
  }
  return allOk;
}

/// Machine-readable report: one JSON object on stdout mirroring every
/// section of the human output (see docs/OBSERVABILITY.md for the schema).
void printJson(const Report& rep, bool consistent, double confidence) {
  using apf::obs::JsonObjectWriter;
  JsonObjectWriter top;
  top.field("schema", "apf.report.v1");
  top.field("confidence", confidence);

  std::string groups;
  for (const auto& [key, g] : rep.groups) {
    const apf::est::Interval wilson = groupWilson(g, confidence);
    JsonObjectWriter w;
    w.field("group", key);
    w.field("runs", g.runs);
    w.field("successes", g.successes);
    w.field("success_lo", wilson.lo);
    w.field("success_hi", wilson.hi);
    w.field("terminated", g.terminated);
    w.field("bits_mean", mean(g.bits));
    w.field("bits_p95", percentile(g.bits, 0.95));
    w.field("cycles_mean", mean(g.cycles));
    w.field("events_mean", mean(g.events));
    w.field("distance_mean", mean(g.distance));
    w.field("bits_per_cycle_max", g.bitsPerCycleMax);
    w.field("election_rounds", g.electionRounds);
    if (!groups.empty()) groups += ",";
    groups += w.str();
  }
  top.rawField("groups", "[" + groups + "]");
  top.field("total_random_bits", rep.totalBits);
  top.field("total_cycles", rep.totalCycles);

  std::string phases;
  for (const auto& [tag, n] : rep.phaseActivations) {
    const auto nsIt = rep.phaseNanos.find(tag);
    JsonObjectWriter w;
    w.field("phase", apf::core::phaseName(tag));
    w.field("activations", n);
    w.field("wall_ns",
            nsIt == rep.phaseNanos.end() ? std::uint64_t{0} : nsIt->second);
    if (!phases.empty()) phases += ",";
    phases += w.str();
  }
  top.rawField("phases", "[" + phases + "]");

  {
    JsonObjectWriter w;
    w.field("fault_runs", rep.faultRuns);
    w.field("faults_injected", rep.manifestFaultsInjected);
    w.field("crashed", rep.manifestCrashed);
    JsonObjectWriter outcomes;
    for (const auto& [name, n] : rep.outcomes) outcomes.field(name, n);
    w.rawField("outcomes", outcomes.str());
    JsonObjectWriter byKind;
    for (const auto& [kind, n] : rep.faultsByKind) byKind.field(kind, n);
    w.rawField("by_kind", byKind.str());
    top.rawField("faults", w.str());
  }
  {
    JsonObjectWriter w;
    w.field("files", rep.jsonlFiles);
    w.field("bad_lines", rep.badLines);
    w.field("bits", rep.eventLogBits);
    w.field("election_rounds", rep.eventLogElections);
    JsonObjectWriter byKind;
    for (const auto& [kind, n] : rep.eventsByKind) byKind.field(kind, n);
    w.rawField("events_by_kind", byKind.str());
    top.rawField("event_logs", w.str());
  }
  if (rep.supervisorManifests > 0 || !rep.repros.empty()) {
    JsonObjectWriter w;
    w.field("manifests", rep.supervisorManifests);
    w.field("items", rep.supItems);
    w.field("finished", rep.supFinished);
    w.field("retries", rep.supRetries);
    w.field("quarantined", rep.supQuarantined);
    w.field("timeouts_cycle", rep.supTimeoutsCycle);
    w.field("timeouts_wall", rep.supTimeoutsWall);
    w.field("exceptions", rep.supExceptions);
    std::string repros;
    for (const auto& r : rep.repros) {
      JsonObjectWriter rw;
      rw.field("file", r.file);
      rw.field("algo", r.algo);
      rw.field("violation_kind", r.kind);
      rw.field("robots", static_cast<std::uint64_t>(r.robots));
      rw.field("crashes", static_cast<std::uint64_t>(r.crashes));
      if (!repros.empty()) repros += ",";
      repros += rw.str();
    }
    w.rawField("repros", "[" + repros + "]");
    top.rawField("supervisor", w.str());
  }
  if (!rep.estimates.empty()) {
    std::string arms;
    for (const auto& e : rep.estimates) {
      JsonObjectWriter w;
      w.field("label", e.label);
      w.field("samples", e.samples);
      w.field("batches", e.batches);
      w.field("max_samples", e.maxSamples);
      w.field("confidence", e.confidence);
      w.field("stop_reason", e.stopReason);
      w.field("converged", e.converged);
      w.field("success_rate", e.successRate);
      w.field("wilson_lo", e.wilsonLo);
      w.field("wilson_hi", e.wilsonHi);
      w.field("bits_mean", e.bitsMean);
      w.field("bits_eb_lo", e.bitsEbLo);
      w.field("bits_eb_hi", e.bitsEbHi);
      if (!arms.empty()) arms += ",";
      arms += w.str();
    }
    JsonObjectWriter w;
    w.rawField("arms", "[" + arms + "]");
    top.rawField("estimation", w.str());
  }
  top.field("consistent", consistent);
  std::printf("%s\n", top.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  double confidence = 0.95;
  apf::cli::ArgParser args(
      "apf_report",
      "aggregates *.manifest.json and *.jsonl telemetry from DIR\n"
      "(see docs/OBSERVABILITY.md)");
  args.flag("--json",
            &json,
            "print one machine-readable JSON object\n"
            "instead of the human report");
  args.num("--confidence", &confidence,
           apf::cli::ArgParser::Num::Confidence, "P",
           "level for the Wilson intervals on group\n"
           "success rates, in (0, 1) (default 0.95;\n"
           "see docs/STATISTICS.md)");
  args.positionals("DIR",
                   "telemetry directory (default: $APF_OBS_DIR)", 0, 1);
  args.exitNotes(" (1 = cross-check inconsistency)");
  args.parse(argc, argv);

  const std::string dirArg =
      args.pos().empty() ? apf::cli::env().obsDir : args.pos().front();
  if (dirArg.empty()) {
    std::fprintf(stderr,
                 "apf_report: no DIR argument and APF_OBS_DIR is unset "
                 "(try --help)\n");
    return 2;
  }
  const fs::path dir(dirArg);
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "apf_report: not a directory: %s\n",
                 dirArg.c_str());
    return 2;
  }

  Report rep;
  std::vector<fs::path> manifests, logs, repros;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".manifest.json") == 0) {
      manifests.push_back(entry.path());
    } else if (name.size() > 11 &&
               name.compare(name.size() - 11, 11, ".repro.json") == 0) {
      repros.push_back(entry.path());
    } else if (name.size() > 6 &&
               name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      logs.push_back(entry.path());
    }
  }
  std::sort(manifests.begin(), manifests.end());
  std::sort(logs.begin(), logs.end());
  std::sort(repros.begin(), repros.end());

  for (const auto& p : manifests) {
    try {
      ingestManifest(p, rep);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "apf_report: skipping %s: %s\n",
                   p.string().c_str(), e.what());
    }
  }
  for (const auto& p : logs) ingestJsonl(p, rep);
  for (const auto& p : repros) ingestRepro(p, rep);

  if (rep.groups.empty() && rep.jsonlFiles == 0 &&
      rep.supervisorManifests == 0 &&
      rep.repros.empty() && rep.estimates.empty()) {
    std::fprintf(stderr, "apf_report: no telemetry found in %s\n",
                 dirArg.c_str());
    return 2;
  }

  if (json) {
    const bool consistent = crossCheck(rep, /*verbose=*/false);
    printJson(rep, consistent, confidence);
    return consistent ? 0 : 1;
  }
  printGroups(rep, confidence);
  printBits(rep);
  printPhases(rep);
  printSupervisor(rep);
  printEstimates(rep);
  printFaults(rep);
  printEventLogs(rep);
  const bool consistent = crossCheck(rep, /*verbose=*/true);
  return consistent ? 0 : 1;
}

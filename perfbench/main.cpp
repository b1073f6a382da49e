/// \file main.cpp
/// Time-to-goal benchmark of the psi_RSB + psi_DPF simulator.
///
///   perfbench --workload NAME --seed S --seconds T --trace 0|1
///             [--corpus-seed C] [--out-dir DIR] [--commit ID]
///
/// Every run of a workload goes to its goal (a selected robot, or the
/// pattern formed) and is verified. --trace 0 times passes over the corpus
/// for about T seconds and prints the end-to-end metrics; --trace 1 runs one
/// untraced and one traced pass plus a predicate replay and prints the
/// per-layer metrics. The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Exit codes: 0 all checks passed, 1 a check failed or an error occurred,
/// 2 bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "reference.h"
#include "workload.h"

namespace {

using namespace perfbench;
using apf::obs::nowNanos;

/// The set-up is repeated for at least this long, and at least
/// kMinSetupReps times, each time right after a reference-kernel call;
/// setup_s is the median of set-up time over kernel time, in nominal
/// seconds (reference.h). One set-up takes well under a millisecond, and
/// its wall time drifts with the host as much as a run's does.
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kMinSetupReps = 11;
/// Untraced runs repeat the corpus at least this often, so the exact-count
/// check always compares repetitions.
constexpr std::size_t kMinPasses = 2;
/// Snapshots the traced pass keeps for the replay, over all its runs.
constexpr std::size_t kReplaySamples = 96;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::uint64_t corpusSeed = 0;
  bool corpusSeedSet = false;
  std::string outDir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed S "
               "--seconds T --trace 0|1 [--corpus-seed C] [--out-dir DIR] "
               "[--commit ID]\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parseU64(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parseU64(v, "--seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseU64(v, "--seconds");
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--corpus-seed") {
      a.corpusSeed = parseU64(v, "--corpus-seed");
      a.corpusSeedSet = true;
    } else if (flag == "--out-dir") {
      a.outDir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the peak of the process that
/// exec'd the benchmark (the Python launcher).
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t goals(const PassResult& p) {
  std::size_t g = 0;
  for (const RunOutcome& r : p.runs) g += r.goal;
  return g;
}

/// Exact counts of `p` that differ from `ref`, as readable lines.
void compareCounts(const PassResult& ref, const PassResult& p,
                   const std::string& what, std::vector<std::string>& out) {
  for (std::size_t i = 0; i < ref.runs.size(); ++i) {
    const RunOutcome& a = ref.runs[i];
    const RunOutcome& b = p.runs[i];
    if (a.cycles != b.cycles || a.events != b.events ||
        a.randomBits != b.randomBits) {
      out.push_back(what + ", run " + std::to_string(i) + ": cycles " +
                    std::to_string(a.cycles) + "/" + std::to_string(b.cycles) +
                    ", events " + std::to_string(a.events) + "/" +
                    std::to_string(b.events) + ", random bits " +
                    std::to_string(a.randomBits) + "/" +
                    std::to_string(b.randomBits));
    }
  }
}

void printJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void printTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Ends the run: prints the problems, the result line, and returns the
/// exit code.
int finish(const std::vector<std::string>& problems, std::size_t attempted,
           std::size_t failed, const std::vector<Metric>& metrics) {
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  printJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int runUntraced(const Args& args, const WorkloadSpec& spec,
                const std::vector<Instance>& corpus, int jobs,
                double setupSeconds) {
  std::vector<PassResult> passes;
  const std::uint64_t t0 = nowNanos();
  for (;;) {
    PassOptions po;
    po.jobs = jobs;
    po.pass = static_cast<int>(passes.size());
    po.referenced = true;
    passes.push_back(runPass(spec, corpus, po));
    const double elapsed = static_cast<double>(nowNanos() - t0) / 1e9;
    const double perPass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= kMinPasses && elapsed + perPass > args.seconds) break;
  }
  const double timedSeconds = static_cast<double>(nowNanos() - t0) / 1e9;

  std::vector<std::string> problems;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    compareCounts(passes[0], passes[p], "pass " + std::to_string(p), problems);
  }
  if (jobs > 1) {
    // The same corpus on the serial path (jobs = 1) must give the same
    // exact counts as the pool: runs are independent of thread placement.
    PassOptions po;
    po.pass = static_cast<int>(passes.size());
    compareCounts(passes[0], runPass(spec, corpus, po), "jobs=1 pass",
                  problems);
  }

  std::size_t attempted = 0, reached = 0;
  for (const PassResult& p : passes) {
    attempted += p.runs.size();
    reached += goals(p);
  }
  const std::size_t failed = attempted - reached;
  // Per instance, the median over passes of its time in seconds and in
  // refs (its time divided by the mean reference-kernel time of the run).
  std::vector<double> perRun, perRunRefs;
  double cycles = 0, events = 0, bits = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::vector<double> times, refs;
    for (const PassResult& p : passes) {
      const RunOutcome& r = p.runs[i];
      times.push_back(r.runSeconds);
      refs.push_back(r.runSeconds * r.refSamples / r.refSeconds);
    }
    perRun.push_back(median(times));
    perRunRefs.push_back(median(refs));
    cycles += static_cast<double>(passes[0].runs[i].cycles);
    events += static_cast<double>(passes[0].runs[i].events);
    bits += static_cast<double>(passes[0].runs[i].randomBits);
  }
  const double k = static_cast<double>(corpus.size());
  // Per pass, goal-reaching runs per 1000 refs of wall time, with the
  // pass's mean reference-kernel time over all its threads.
  std::vector<double> passRunsPerKref;
  double refSeconds = 0, refSamples = 0;
  for (const PassResult& p : passes) {
    double seconds = 0, samples = 0;
    for (const RunOutcome& r : p.runs) {
      seconds += r.refSeconds;
      samples += r.refSamples;
    }
    passRunsPerKref.push_back(1000.0 * static_cast<double>(goals(p)) *
                              (seconds / samples) / p.wallSeconds);
    refSeconds += seconds;
    refSamples += samples;
  }

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const RunOutcome& r = passes[0].runs[i];
    std::printf("run %zu: %s start, goal %d, cycles %llu, events %llu, "
                "random bits %llu, %.3f s, %.1f refs\n",
                i, corpus[i].symmetricStart ? "symmetric" : "random", r.goal,
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.randomBits), perRun[i],
                perRunRefs[i]);
  }
  const std::vector<Metric> metrics = {
      {"runs_per_kref", median(passRunsPerKref), "1/kref"},
      {"run_refs_p50", median(perRunRefs), "ref"},
      {"cycles_per_run", cycles / k, "count"},
      {"events_per_run", events / k, "count"},
      {"setup_s", setupSeconds, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::printf("passes %zu, runs attempted %zu, timed %.3f s; pass walls (s):",
              passes.size(), attempted, timedSeconds);
  for (const PassResult& p : passes) std::printf(" %.3f", p.wallSeconds);
  std::printf("\n");
  printTable(metrics);
  // Reported here but kept out of the result object. The wall-time pair
  // follows the host's drift (reference.h); the last two are 0 on some
  // workloads (formation from random starts draws no random bit).
  std::printf("  %-38s %16.6f %s\n", "runs_per_s",
              static_cast<double>(reached) / timedSeconds, "1/s");
  std::printf("  %-38s %16.6f %s\n", "run_s_p50", median(perRun), "s");
  std::printf("  %-38s %16.6f %s\n", "ref_ms_mean",
              1000.0 * refSeconds / refSamples, "ms");
  std::printf("  %-38s %16.6f %s\n", "random_bits_per_run", bits / k, "count");
  std::printf("  %-38s %16.6f %s\n", "failed_runs_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  return finish(problems, attempted, failed, metrics);
}

int runTraced(const Args& args, const WorkloadSpec& spec,
              const std::vector<Instance>& corpus, int jobs) {
  PassOptions plainOpts;
  plainOpts.jobs = jobs;
  const PassResult plain = runPass(spec, corpus, plainOpts);

  PassOptions tracedOpts;
  tracedOpts.jobs = jobs;
  tracedOpts.traced = true;
  tracedOpts.pass = 1;
  tracedOpts.samplesPerRun =
      (kReplaySamples + corpus.size() - 1) / corpus.size();
  apf::obs::SpanCollector collector;
  collector.install();
  PassResult traced = runPass(spec, corpus, tracedOpts);
  std::vector<ComputeSample> samples;
  for (RunOutcome& r : traced.runs) {
    for (ComputeSample& s : r.log->samples) samples.push_back(std::move(s));
    r.log->samples.clear();
  }
  const ReplayCounts replay = replaySamples(samples);
  apf::obs::SpanCollector::uninstall();

  std::vector<std::string> problems;
  compareCounts(plain, traced, "traced pass", problems);
  const std::vector<apf::obs::Span> spans = collector.snapshot();
  const double plainRunsPerSecond =
      static_cast<double>(goals(plain)) / plain.wallSeconds;
  const std::vector<Metric> metrics =
      layerMetrics(spans, traced, replay, collector.droppedCount(),
                   plainRunsPerSecond, problems);
  if (collector.droppedCount() != 0) problems.push_back("spans were dropped");
  if (replay.shiftedMissing != 0) {
    problems.push_back(std::to_string(replay.shiftedMissing) +
                       " rsb-shifted snapshots have no shifted regular set");
  }
  if (replay.selectedMissing != 0) {
    problems.push_back(std::to_string(replay.selectedMissing) +
                       " dpf-* snapshots have no selected robot");
  }

  std::filesystem::create_directories(args.outDir);
  const std::string tracePath =
      args.outDir + "/" + spec.name + ".trace.json";
  collector.writeChromeTrace(tracePath);

  const std::size_t attempted = plain.runs.size() + traced.runs.size();
  const std::size_t failed = attempted - goals(plain) - goals(traced);
  std::printf("trace: %s (%zu spans, %llu dropped; open in Perfetto)\n",
              tracePath.c_str(), spans.size(),
              static_cast<unsigned long long>(collector.droppedCount()));
  std::printf("replay: %llu snapshots (%llu rsb-shifted, %llu dpf-*), "
              "%llu grid fits, checksum %.6g\n",
              static_cast<unsigned long long>(replay.samples),
              static_cast<unsigned long long>(replay.shiftedTagged),
              static_cast<unsigned long long>(replay.dpfTagged),
              static_cast<unsigned long long>(replay.gridFits),
              replay.checksum);
  printTable(metrics);
  return finish(problems, attempted, failed, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const WorkloadSpec* spec = findWorkload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  const std::uint64_t corpusSeed =
      args.corpusSeedSet ? args.corpusSeed : spec->defaultCorpusSeed;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int jobs = spec->pooled ? static_cast<int>(hw) : 1;
  try {
    std::vector<double> setupTimes, setupRefs;
    std::vector<Instance> corpus;
    const std::uint64_t setupStart = nowNanos();
    while (setupTimes.size() < kMinSetupReps ||
           static_cast<double>(nowNanos() - setupStart) / 1e9 < kSetupSeconds) {
      const double ref = referenceSeconds();
      const std::uint64_t t0 = nowNanos();
      corpus = makeCorpus(*spec, corpusSeed, args.seed);
      setupTimes.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
      setupRefs.push_back(setupTimes.back() / ref);
    }
    std::printf(
        "workload %s: seed %llu, corpus seed %llu (default %llu, held-out "
        "%llu), %zu runs per pass, jobs %d\n"
        "hardware_concurrency %u, build %s, compiler %s, commit %s\n",
        spec->name, static_cast<unsigned long long>(args.seed),
        static_cast<unsigned long long>(corpusSeed),
        static_cast<unsigned long long>(spec->defaultCorpusSeed),
        static_cast<unsigned long long>(spec->heldOutCorpusSeed),
        corpus.size(), jobs, hw, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
        args.commit.c_str());
    std::printf("set-up: %zu repetitions, median %.6f s wall, %.6f refs\n",
                setupTimes.size(), median(setupTimes), median(setupRefs));
    std::fflush(stdout);
    return args.trace == 1
               ? runTraced(args, *spec, corpus, jobs)
               : runUntraced(args, *spec, corpus, jobs,
                             median(setupRefs) * kNominalReferenceSeconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

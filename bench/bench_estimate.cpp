/// \file bench_estimate.cpp
/// TE — adaptive estimation throughput bench. Times est::runAdaptive
/// campaigns (src/est/adaptive.h) end to end — seeded trials on the
/// campaign pool, streaming summary merges, sequential stopping — and
/// emits a machine-readable `BENCH_estimate.json` so the estimate-smoke CI
/// job can gate regressions with apf_bench_diff (same row schema as
/// BENCH_perf.json, schema tag "apf.bench_estimate.v1").
///
/// Every adaptive cell is measured serially (jobs = 1) and on the pool,
/// with an in-process determinism cross-check: the two ArmEstimate JSON
/// documents must be byte-identical (the adaptive.h contract). A stopping
/// rule that drifted with the thread count would abort the bench, not
/// just skew a number.
///
/// An estimator microbench times the Clopper–Pearson path (normal
/// quantile + Beta-quantile bisection) — the only estimator with a real
/// inner loop; Wilson and the streaming merges are a handful of flops.
///
/// `--quick` shrinks the sample budgets for the CI smoke job.

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/yy.h"
#include "bench/common.h"
#include "core/form_pattern.h"
#include "est/adaptive.h"
#include "obs/json.h"
#include "sim/campaign.h"

using namespace apf;
using namespace apf::bench;

namespace {

struct WorkloadResult {
  std::string workload;
  std::size_t n = 0;
  int jobs = 1;
  int runs = 0;  ///< samples the adaptive run consumed, or micro iterations
  double wallMs = 0.0;
  double perSec = 0.0;   ///< samples (or ops) per second
  double speedup = 1.0;  ///< vs. the serial baseline
};

template <typename F>
double timeMs(F&& f) {
  const std::uint64_t t0 = obs::nowNanos();
  f();
  return static_cast<double>(obs::nowNanos() - t0) / 1e6;
}


}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  TraceSession trace("bench_estimate");
  const int parJobs = sim::campaignJobs();

  Table table("TE: adaptive estimation throughput (est::runAdaptive)",
              "bench_estimate.csv",
              {"workload", "n", "jobs", "samples", "wall_ms", "per_sec",
               "speedup", "stop"});
  std::vector<WorkloadResult> out;

  // --- adaptive campaign cells -------------------------------------------
  // form converges on random starts, so its cells exercise the early-stop
  // path (half-width fires well before the budget); yy with common
  // chirality does the same with a far costlier per-trial engine (53-bit
  // uniform draws). The budgets keep full mode under a minute per cell.
  struct Cell {
    const char* name;
    bool yy;  ///< yy-baseline arm (common chirality) instead of form
    std::size_t n;
    std::uint64_t maxEvents;
    std::uint64_t maxSamples;
  };
  const Cell cells[] = {
      {"adaptive_form", false, 8, 200000, 256},
      {"adaptive_form", false, 16, 200000, 128},
      {"adaptive_yy", true, 8, 200000, 256},
  };
  core::FormPatternAlgorithm form;
  baseline::YYAlgorithm yy;

  for (const Cell& cell : cells) {
    const sim::Algorithm& algo =
        cell.yy ? static_cast<const sim::Algorithm&>(yy)
                : static_cast<const sim::Algorithm&>(form);
    sim::Scenario sc;
    sc.pattern = io::starPattern(cell.n);
    sc.maxEvents = cell.maxEvents;
    sc.commonChirality = cell.yy;
    const est::Trial trial = est::scenarioTrial(sc, algo);

    est::AdaptiveOptions aopts;
    aopts.baseSeed = 9000 + cell.n;
    aopts.stop.batchSize = quick ? 4 : 16;
    aopts.stop.minSamples = quick ? 8 : 32;
    aopts.stop.maxSamples = quick ? 16 : cell.maxSamples;
    aopts.stop.targetHalfWidth = 0.05;

    est::ArmEstimate serial, pooled;
    aopts.jobs = 1;
    const double serialMs =
        timeMs([&] { serial = est::runAdaptive(cell.name, trial, aopts); });
    aopts.jobs = parJobs;
    const double parMs =
        timeMs([&] { pooled = est::runAdaptive(cell.name, trial, aopts); });
    if (serial.toJson() != pooled.toJson()) {
      std::fprintf(stderr,
                   "FATAL: %s n=%zu: pooled adaptive run differs from "
                   "serial (determinism violation)\n",
                   cell.name, cell.n);
      return 1;
    }

    const int samples = static_cast<int>(serial.samples);
    auto emit = [&](int jobs, double wallMs, double speedup) {
      table.row({cell.name, std::to_string(cell.n), std::to_string(jobs),
                 std::to_string(samples), io::fmt(wallMs, 1),
                 io::fmt(1000.0 * samples / wallMs, 2), io::fmt(speedup, 2),
                 est::stopReasonName(serial.stopReason)});
      WorkloadResult w;
      w.workload = cell.name;
      w.n = cell.n;
      w.jobs = jobs;
      w.runs = samples;
      w.wallMs = wallMs;
      w.perSec = 1000.0 * samples / wallMs;
      w.speedup = speedup;
      out.push_back(std::move(w));
    };
    emit(1, serialMs, 1.0);
    emit(parJobs, parMs, serialMs / parMs);
    table.recordRuns(std::string(cell.name) + "_n" + std::to_string(cell.n),
                     serial.samples);
  }

  // --- estimator microbench ----------------------------------------------
  // Clopper–Pearson is a Beta-quantile bisection over the incomplete-beta
  // continued fraction — the one estimator whose cost could silently
  // balloon. Sweep (trials, successes) pairs so both tails and the
  // midrange are hit.
  {
    const int iters = quick ? 2000 : 50000;
    double checksum = 0.0;  // defeat dead-code elimination
    const double cpMs = timeMs([&] {
      for (int i = 0; i < iters; ++i) {
        est::BernoulliSummary s;
        s.trials = 40 + static_cast<std::uint64_t>(i % 200);
        s.successes = static_cast<std::uint64_t>(i) % (s.trials + 1);
        const est::Interval ci = est::clopperPearson(s, 0.95);
        checksum += ci.lo + ci.hi;
      }
    });
    table.row({"clopper_pearson", "-", "1", std::to_string(iters),
               io::fmt(cpMs, 1), io::fmt(1000.0 * iters / cpMs, 2), "1.00",
               "-"});
    table.recordRuns("clopper_pearson", static_cast<std::uint64_t>(iters));
    WorkloadResult w;
    w.workload = "clopper_pearson";
    w.n = 0;
    w.jobs = 1;
    w.runs = iters;
    w.wallMs = cpMs;
    w.perSec = 1000.0 * iters / cpMs;
    out.push_back(std::move(w));
    std::printf("(checksum %.3f)\n", checksum);
  }

  table.print();

  // --- BENCH_estimate.json ------------------------------------------------
  std::string entries;
  for (const WorkloadResult& w : out) {
    obs::JsonObjectWriter jw;
    jw.field("workload", w.workload);
    jw.field("n", static_cast<std::uint64_t>(w.n));
    jw.field("jobs", w.jobs);
    jw.field("runs", w.runs);
    jw.field("wall_ms", w.wallMs);
    jw.field("runs_per_sec", w.perSec);
    jw.field("speedup_vs_serial", w.speedup);
    if (!entries.empty()) entries += ",";
    entries += jw.str();
  }
  obs::JsonObjectWriter top;
  top.field("schema", "apf.bench_estimate.v1");
  top.field("quick", quick);
  top.field("hardware_concurrency",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  top.field("serial_jobs", 1);
  top.field("parallel_jobs", parJobs);
  top.rawField("workloads", "[" + entries + "]");
  const std::string jsonPath = resultsPath("BENCH_estimate.json");
  std::ofstream js(jsonPath);
  js << top.str() << "\n";
  if (!js) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", jsonPath.c_str());
  return 0;
}

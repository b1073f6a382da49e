/// \file bench_scheduler.cpp
/// Experiment T7 — full asynchrony: FSYNC vs SSYNC vs ASYNC, including an
/// ASYNC pause-intensity sweep (higher early-stop probability = more
/// aggressive chopping and staler snapshots). The paper's claim: the
/// algorithm is correct under the weakest model, robots really may pause
/// mid-movement.
///
/// Expected shape: success everywhere; FSYNC cheapest in cycles, ASYNC
/// costliest; cost rises smoothly with adversary aggression.

#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  apf::bench::TraceSession trace("bench_scheduler");
  const int kSeeds = 10;
  core::FormPatternAlgorithm algo;

  Table table("T7: scheduler comparison (n = 10, random starts + pattern)",
              "bench_scheduler.csv",
              {"scheduler", "earlyStop", "success", "cycles_mean",
               "events_mean"});

  struct Cell {
    const char* name;
    sched::SchedulerKind kind;
    double earlyStop;
  };
  const Cell cells[] = {
      {"FSYNC", sched::SchedulerKind::FSync, 0.0},
      {"SSYNC", sched::SchedulerKind::SSync, 0.5},
      {"ASYNC", sched::SchedulerKind::Async, 0.1},
      {"ASYNC", sched::SchedulerKind::Async, 0.5},
      {"ASYNC", sched::SchedulerKind::Async, 0.9},
  };

  // Seeds of one cell fan out across the campaign pool; rows aggregate the
  // merged in-order results, so the CSV is identical for any APF_JOBS.
  std::vector<int> seeds(kSeeds);
  for (int s = 0; s < kSeeds; ++s) seeds[s] = s;
  long obsBase = 0;

  for (const Cell& cell : cells) {
    const auto results = sim::campaignMap(seeds, [&](int s, std::size_t) {
      config::Rng rng(810 + s);
      const std::size_t n = 10;
      const auto start = config::randomConfiguration(n, rng, 5.0, 0.1);
      const auto pattern = io::randomPatternByName(n, 90 + s);
      sim::EngineOptions opts;
      opts.sched.kind = cell.kind;
      opts.seed = 23 * s + 9;
      opts.sched.earlyStopProb = cell.earlyStop;
      opts.maxEvents = 2000000;
      return runOnce(start, pattern, algo, opts, "", obsBase + s);
    });
    obsBase += kSeeds;
    int ok = 0;
    std::vector<double> cycles, events;
    for (const auto& res : results) {
      ok += res.success;
      if (res.success) {
        cycles.push_back(static_cast<double>(res.metrics.cycles));
        events.push_back(static_cast<double>(res.metrics.events));
      }
    }
    table.row({cell.name, io::fmt(cell.earlyStop, 1),
               std::to_string(ok) + "/" + std::to_string(kSeeds),
               io::fmt(statsOf(cycles).mean, 0),
               io::fmt(statsOf(events).mean, 0)});
    table.recordRuns(std::string(cell.name) + "_es" +
                         io::fmt(cell.earlyStop, 1),
                     static_cast<std::uint64_t>(kSeeds));
  }
  table.print();
  return 0;
}

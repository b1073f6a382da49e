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
  TraceSession trace("bench_scheduler");
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

  for (const Cell& cell : cells) {
    const std::string key =
        cellName(cell.name, "_es", io::fmt(cell.earlyStop, 1));
    const Tally t = tally(runCell(table, key, kSeeds, [&](int s) {
      config::Rng rng(810 + s);
      const std::size_t n = 10;
      sim::EngineOptions opts;
      opts.sched.kind = cell.kind;
      opts.seed = 23 * s + 9;
      opts.sched.earlyStopProb = cell.earlyStop;
      opts.maxEvents = 2000000;
      return Run{config::randomConfiguration(n, rng, 5.0, 0.1),
                 io::randomPatternByName(n, 90 + s), algo, opts};
    }));
    table.row({cell.name, io::fmt(cell.earlyStop, 1), t.rate(),
               io::fmt(statsOf(t.cycles).mean, 0),
               io::fmt(statsOf(t.events).mean, 0)});
  }
  table.print();
  return 0;
}

/// \file bench_delta.cpp
/// Experiment T6 / F6 — non-rigid movement: the adversary stops robots
/// after delta; the algorithm must converge for EVERY delta > 0 (delta is
/// unknown to the robots). Sweeps delta with an aggressive stop-at-delta
/// adversary and reports cycles to completion.
///
/// Expected shape: success everywhere; cycles grow roughly like 1/delta
/// for small delta (long radial or arc moves get chopped into delta-sized
/// pieces, each costing one cycle).

#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_delta");
  const int kSeeds = 8;
  core::FormPatternAlgorithm algo;

  Table table("T6: delta sensitivity (ASYNC, aggressive stop-at-delta, n=8)",
              "bench_delta.csv",
              {"delta", "success", "cycles_mean", "cycles_p95",
               "moves_per_robot"});

  for (double delta : {0.005, 0.01, 0.05, 0.1, 0.25, 0.5}) {
    const std::string cell = cellName("delta", io::fmt(delta, 3));
    const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
      config::Rng rng(700 + s);
      const std::size_t n = 8;
      sim::EngineOptions opts;
      opts.seed = 19 * s + 7;
      opts.sched.delta = delta;
      opts.sched.earlyStopProb = 0.9;
      opts.maxEvents = 3000000;
      return Run{config::randomConfiguration(n, rng, 5.0, 0.1),
                 io::starPattern(n), algo, opts};
    }));
    const Stats cs = statsOf(t.cycles);
    table.row({io::fmt(delta, 3), t.rate(), io::fmt(cs.mean, 0),
               io::fmt(cs.p95, 0), io::fmt(cs.mean / 8.0, 1)});
  }
  table.print();
  return 0;
}

/// \file bench_formation.cpp
/// Experiment T3 (Theorem 2): the full algorithm forms every pattern class
/// from random starts under the ASYNC adversary, for n >= 7. Reports
/// success rates, cycles, distance, and random bits per cell.
///
/// Expected shape: 100% success everywhere; cycles grow superlinearly in n
/// (each robot placement is sequential in phase 2); random bits stay 0 for
/// asymmetric random starts (the election short-circuits through the
/// deterministic Q^c branch).

#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_formation");
  const int kSeeds = 10;
  core::FormPatternAlgorithm algo;

  Table table("T3: full pattern formation from random starts (ASYNC)",
              "bench_formation.csv",
              {"pattern", "n", "success", "cycles_mean", "cycles_p95",
               "bits_mean", "dist_mean"});

  for (const std::string pat : {"polygon", "star", "grid", "spiral",
                                "random"}) {
    for (std::size_t n : {8, 12, 16}) {
      const std::string cell = cellName(pat, "_n", n);
      const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
        config::Rng rng(500 + s);
        sim::EngineOptions opts;
        opts.seed = 13 * s + 2;
        opts.maxEvents = kMaxEvents;
        return Run{config::randomConfiguration(n, rng, 5.0, 0.1),
                   io::patternByName(pat, n, 40 + s), algo, opts};
      }));
      const Stats cs = statsOf(t.cycles);
      table.row({pat, std::to_string(n), t.rate(), io::fmt(cs.mean, 0),
                 io::fmt(cs.p95, 0), io::fmt(statsOf(t.bits).mean, 1),
                 io::fmt(statsOf(t.dist).mean, 1)});
    }
  }
  table.print();

  // Symmetric starts: the probability-1 claim where randomness is REQUIRED.
  Table sym("T3b: formation from symmetric starts (ASYNC)",
            "bench_formation_symmetric.csv",
            {"n", "success", "cycles_mean", "bits_mean"});
  for (std::size_t n : {8, 12, 16}) {
    const std::string cell = cellName("n", n);
    const Tally t = tally(runCell(sym, cell, kSeeds, [&](int s) {
      sim::EngineOptions opts;
      opts.seed = 17 * s + 3;
      opts.maxEvents = kMaxEvents;
      return Run{symmetricStart(n, 900 + s),
                 io::randomPatternByName(n, 60 + s), algo, opts};
    }));
    sym.row({std::to_string(n), t.rate(), io::fmt(statsOf(t.cycles).mean, 0),
             io::fmt(statsOf(t.bits).mean, 1)});
  }
  sym.print();
  return 0;
}

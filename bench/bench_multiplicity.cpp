/// \file bench_multiplicity.cpp
/// Experiment T9 — the §5 / appendix-C extension: patterns with
/// multiplicity points are formable when robots have multiplicity
/// detection, including the hard case of a multiplicity point at the
/// pattern's center (formed via the F~ relocation + final gather).
///
/// Expected shape: full success with detection for both interior and
/// center multiplicity; cycles comparable to plain formation plus the
/// gather tail for the center case.

#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_multiplicity");
  const int kSeeds = 10;
  core::FormPatternAlgorithm algo;

  Table table("T9: multiplicity patterns (ASYNC, detection on)",
              "bench_multiplicity.csv",
              {"pattern", "n", "success", "cycles_mean", "cycles_p95"});

  struct Kind {
    const char* name;
    config::Configuration (*make)(std::size_t);
  };
  const Kind kinds[] = {{"interior-mult", io::multiplicityPattern},
                        {"center-mult", io::centerMultiplicityPattern}};

  for (const auto& [name, make] : kinds) {
    for (std::size_t n : {8, 12}) {
      const std::string cell = cellName(name, "_n", n);
      const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
        config::Rng rng(1010 + s);
        sim::EngineOptions opts;
        opts.seed = 31 * s + 13;
        opts.maxEvents = kMaxEvents;
        opts.multiplicityDetection = true;
        return Run{config::randomConfiguration(n, rng, 5.0, 0.1), make(n),
                   algo, opts};
      }));
      const Stats cs = statsOf(t.cycles);
      table.row({name, std::to_string(n), t.rate(), io::fmt(cs.mean, 0),
                 io::fmt(cs.p95, 0)});
    }
  }
  table.print();
  return 0;
}

/// \file bench_chirality.cpp
/// Experiment T4 — the paper's headline contribution: pattern formation
/// WITHOUT common chirality. The Yamauchi-Yamashita-style baseline assumes
/// a shared handedness; ours does not. Each cell runs both algorithms with
/// robot frames (a) all direct (common chirality) and (b) independently
/// reflected with probability 1/2.
///
/// Expected shape: baseline succeeds with chirality and collapses without;
/// ours is unaffected by the ablation.

#include "baseline/yy.h"
#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_chirality");
  const int kSeeds = 20;
  core::FormPatternAlgorithm ours;
  baseline::YYAlgorithm yy;

  Table table("T4: chirality ablation (SSYNC, random starts, n = 8 / 12)",
              "bench_chirality.csv",
              {"algorithm", "n", "chirality", "success", "cycles_mean"});

  struct Algo {
    const char* name;
    const sim::Algorithm* algo;
  };
  const Algo algos[] = {{"bramas-tixeuil", &ours}, {"yy-baseline", &yy}};

  for (const auto& [name, algo] : algos) {
    for (std::size_t n : {8, 12}) {
      for (bool chirality : {true, false}) {
        const std::string cell =
            cellName(name, "_n", n, chirality ? "_common" : "_none");
        const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
          config::Rng rng(100 + s);
          sim::EngineOptions opts;
          opts.sched.kind = sched::SchedulerKind::SSync;
          opts.seed = s + 1;
          opts.maxEvents = 300000;
          opts.commonChirality = chirality;
          return Run{config::randomConfiguration(n, rng, 3.0, 0.1),
                     io::randomPatternByName(n, 1000 + s), *algo, opts};
        }));
        table.row({name, std::to_string(n), chirality ? "common" : "none",
                   t.rate(), io::fmt(statsOf(t.cycles).mean, 0)});
      }
    }
  }
  table.print();
  return 0;
}

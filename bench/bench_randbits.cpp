/// \file bench_randbits.cpp
/// Experiment T5 — random-bit complexity: the paper's algorithm draws at
/// most ONE bit per robot per cycle (and only during the election), while
/// the Yamauchi-Yamashita-style baseline draws continuous uniforms (53 bits
/// each at double resolution; countably infinite in the model). Symmetric
/// starts force both algorithms to actually randomize; both run with common
/// chirality so the baseline is on its home turf.
///
/// Expected shape: ours consumes a handful of bits total (a few per
/// election participant); the baseline consumes 53x its draw count;
/// bits/cycle <= 1 for ours always.

#include "baseline/yy.h"
#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_randbits");
  const int kSeeds = 20;
  core::FormPatternAlgorithm ours;
  baseline::YYAlgorithm yy;

  Table table("T5: random-bit complexity on symmetric starts (SSYNC)",
              "bench_randbits.csv",
              {"algorithm", "n", "success", "bits_mean", "bits_p95",
               "bits_per_cycle_max"});

  struct Algo {
    const char* name;
    const sim::Algorithm* algo;
  };
  const Algo algos[] = {{"bramas-tixeuil", &ours}, {"yy-baseline", &yy}};

  for (const auto& [name, algo] : algos) {
    for (std::size_t n : {8, 12, 16}) {
      const std::string cell = cellName(name, "_n", n);
      const auto results = runCell(table, cell, kSeeds, [&](int s) {
        sim::EngineOptions opts;
        opts.sched.kind = sched::SchedulerKind::SSync;
        opts.seed = 11 * s + 5;
        opts.maxEvents = kMaxEvents;
        opts.commonChirality = true;
        return Run{symmetricStart(n, 300 + s),
                   io::randomPatternByName(n, 70 + s), *algo, opts};
      });
      std::vector<double> bits, perCycle;
      for (const auto& res : results) {
        bits.push_back(static_cast<double>(res.metrics.randomBits));
        if (res.metrics.cycles > 0) {
          perCycle.push_back(static_cast<double>(res.metrics.randomBits) /
                             static_cast<double>(res.metrics.cycles));
        }
      }
      const Stats bs = statsOf(bits);
      table.row({name, std::to_string(n), tally(results).rate(),
                 io::fmt(bs.mean, 1), io::fmt(bs.p95, 0),
                 io::fmt(statsOf(perCycle).max, 3)});
    }
  }
  table.print();
  return 0;
}

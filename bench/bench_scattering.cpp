/// \file bench_scattering.cpp
/// Experiment T10 — the §5 composition implemented as future work made
/// present: SSYNC scattering (initial configurations WITH multiplicity
/// points) followed by full pattern formation. Reports the scattering
/// overhead (cycles, random bits) and end-to-end success.
///
/// Expected shape: full success; scattering consumes a handful of extra
/// bits (one per co-located robot per cycle until the groups dissolve);
/// the formation tail dominates total cycles.

#include "bench/common.h"
#include "core/scattering.h"

using namespace apf;
using namespace apf::bench;

namespace {

config::Configuration clusteredStart(std::size_t n, std::uint64_t seed) {
  config::Rng rng(seed);
  const std::size_t spots = n / 3 + 2;
  const auto anchors = config::randomConfiguration(spots, rng, 3.0, 0.5);
  config::Configuration out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(anchors[i % spots]);
  return out;
}

}  // namespace

int main() {
  TraceSession trace("bench_scattering");
  const int kSeeds = 10;
  core::ScatterThenForm algo;
  core::ScatterAlgorithm scatterOnly;

  Table table("T10: SSYNC scattering + formation from clustered starts",
              "bench_scattering.csv",
              {"n", "stage", "success", "cycles_mean", "bits_mean"});

  // Both stages run seed s from the same clustered start and options.
  auto options = [](int s) {
    sim::EngineOptions opts;
    opts.sched.kind = sched::SchedulerKind::SSync;
    opts.seed = 41 * s + 3;
    opts.maxEvents = kMaxEvents;
    opts.multiplicityDetection = true;
    return opts;
  };
  for (std::size_t n : {9, 12, 15}) {
    // Stage A: scattering alone (until no multiplicity point remains).
    {
      const std::string cell = cellName("n", n, "_scatter");
      const auto results = runCell(table, cell, kSeeds, [&](int s) {
        return Run{clusteredStart(n, 100 + s), io::starPattern(n),
                   scatterOnly, options(s)};
      });
      std::vector<double> cycles, bits;
      for (const auto& res : results) {
        cycles.push_back(static_cast<double>(res.metrics.cycles));
        bits.push_back(static_cast<double>(res.metrics.randomBits));
      }
      table.row({std::to_string(n), "scatter",
                 tally(results, &sim::RunResult::terminated).rate(),
                 io::fmt(statsOf(cycles).mean, 0),
                 io::fmt(statsOf(bits).mean, 1)});
    }
    // Stage B: the full composition, ending in a formed pattern.
    {
      const std::string cell = cellName("n", n, "_scatter+form");
      const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
        return Run{clusteredStart(n, 100 + s),
                   io::randomPatternByName(n, 200 + s), algo, options(s)};
      }));
      table.row({std::to_string(n), "scatter+form", t.rate(),
                 io::fmt(statsOf(t.cycles).mean, 0),
                 io::fmt(statsOf(t.bits).mean, 1)});
    }
  }
  table.print();
  return 0;
}

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
  apf::bench::TraceSession trace("bench_formation");
  const int kSeeds = 10;
  core::FormPatternAlgorithm algo;

  Table table("T3: full pattern formation from random starts (ASYNC)",
              "bench_formation.csv",
              {"pattern", "n", "success", "cycles_mean", "cycles_p95",
               "bits_mean", "dist_mean"});

  // Per-cell seeds fan out across the campaign pool (sim/campaign.h);
  // in-order merge keeps every CSV row identical for any APF_JOBS.
  std::vector<int> seeds(kSeeds);
  for (int s = 0; s < kSeeds; ++s) seeds[s] = s;
  long obsBase = 0;

  for (const std::string pat : {"polygon", "star", "grid", "spiral",
                                "random"}) {
    for (std::size_t n : {8, 12, 16}) {
      const auto results = sim::campaignMap(seeds, [&](int s, std::size_t) {
        config::Rng rng(500 + s);
        const auto start = config::randomConfiguration(n, rng, 5.0, 0.1);
        const auto pattern = io::patternByName(pat, n, 40 + s);
        sim::EngineOptions opts;
        opts.seed = 13 * s + 2;
        opts.maxEvents = kMaxEvents;
        return runOnce(start, pattern, algo, opts, "", obsBase + s);
      });
      obsBase += kSeeds;
      int ok = 0;
      std::vector<double> cycles, bits, dist;
      for (const auto& res : results) {
        ok += res.success;
        if (res.success) {
          cycles.push_back(static_cast<double>(res.metrics.cycles));
          bits.push_back(static_cast<double>(res.metrics.randomBits));
          dist.push_back(res.metrics.distance);
        }
      }
      const Stats cs = statsOf(cycles);
      table.row({pat, std::to_string(n),
                 std::to_string(ok) + "/" + std::to_string(kSeeds),
                 io::fmt(cs.mean, 0), io::fmt(cs.p95, 0),
                 io::fmt(statsOf(bits).mean, 1),
                 io::fmt(statsOf(dist).mean, 1)});
    }
  }
  table.print();

  // Symmetric starts: the probability-1 claim where randomness is REQUIRED.
  Table sym("T3b: formation from symmetric starts (ASYNC)",
            "bench_formation_symmetric.csv",
            {"n", "success", "cycles_mean", "bits_mean"});
  for (std::size_t n : {8, 12, 16}) {
    const auto results = sim::campaignMap(seeds, [&](int s, std::size_t) {
      const auto start = symmetricStart(n, 900 + s);
      const auto pattern = io::randomPatternByName(n, 60 + s);
      sim::EngineOptions opts;
      opts.seed = 17 * s + 3;
      opts.maxEvents = kMaxEvents;
      return runOnce(start, pattern, algo, opts, "", obsBase + s);
    });
    obsBase += kSeeds;
    int ok = 0;
    std::vector<double> cycles, bits;
    for (const auto& res : results) {
      ok += res.success;
      if (res.success) {
        cycles.push_back(static_cast<double>(res.metrics.cycles));
        bits.push_back(static_cast<double>(res.metrics.randomBits));
      }
    }
    sym.row({std::to_string(n),
             std::to_string(ok) + "/" + std::to_string(kSeeds),
             io::fmt(statsOf(cycles).mean, 0),
             io::fmt(statsOf(bits).mean, 1)});
  }
  sym.print();
  return 0;
}

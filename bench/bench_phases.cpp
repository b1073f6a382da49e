/// \file bench_phases.cpp
/// Experiment T8 — phase anatomy: where do activations go? Aggregates the
/// per-phase activation histogram across runs, separately for random
/// (asymmetric) and symmetric starts.
///
/// Expected shape: random starts skip the election entirely (the Q^c branch
/// elects deterministically); symmetric starts spend activations in
/// rsb-election / rsb-shifted first; in both cases the bulk of activations
/// are DPF circle placement and rotation, plus a long tail of "terminal"
/// confirmations at the end of ASYNC runs.

#include <map>

#include "bench/common.h"
#include "core/form_pattern.h"
#include "core/phases.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_phases");
  const int kSeeds = 10;
  core::FormPatternAlgorithm algo;

  Table table("T8: activations per phase (n = 10, ASYNC)",
              "bench_phases.csv",
              {"start", "phase", "activations_mean", "share_pct"});

  for (const std::string kind : {"random", "symmetric"}) {
    const auto results = runCell(table, kind, kSeeds, [&](int s) {
      const std::size_t n = 10;
      config::Rng rng(910 + s);
      sim::EngineOptions opts;
      opts.seed = 29 * s + 11;
      opts.maxEvents = kMaxEvents;
      return Run{kind == "random"
                     ? config::randomConfiguration(n, rng, 5.0, 0.1)
                     : symmetricStart(n, 910 + s),
                 io::randomPatternByName(n, 130 + s), algo, opts};
    });
    std::map<int, double> acc;
    double total = 0.0;
    for (const auto& res : results) {
      for (const auto& [tag, cnt] : res.metrics.phaseActivations) {
        acc[tag] += static_cast<double>(cnt);
        total += static_cast<double>(cnt);
      }
    }
    for (const auto& [tag, cnt] : acc) {
      table.row({kind, core::phaseName(tag), io::fmt(cnt / kSeeds, 1),
                 io::fmt(100.0 * cnt / total, 1)});
    }
  }
  table.print();
  return 0;
}

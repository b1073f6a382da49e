/// \file bench_determinism.cpp
/// Experiment T11 — the determinism ablation that motivates the paper:
/// deterministic algorithms cannot break symmetric configurations
/// (rho(P) > 1 or axial symmetry), so deterministic formation only works
/// when the initial views are all distinct. The paper's single random bit
/// removes exactly this wall. Runs the paper's algorithm and the
/// deterministic composition (unique-max-view election + psi_DPF) on
/// asymmetric vs. symmetric starts.
///
/// Expected shape: both succeed from random (asymmetric) starts; from
/// symmetric starts the deterministic baseline terminates UNCHANGED (0
/// distance — provably stuck) while ours still succeeds.

#include "baseline/det_formation.h"
#include "bench/common.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_determinism");
  const int kSeeds = 12;
  core::FormPatternAlgorithm ours;
  baseline::DeterministicFormation det;

  Table table("T11: determinism ablation (ASYNC, n = 8 / 12)",
              "bench_determinism.csv",
              {"algorithm", "start", "n", "success", "stuck", "bits_mean"});

  struct Algo {
    const char* name;
    const sim::Algorithm* algo;
  };
  const Algo algos[] = {{"bramas-tixeuil", &ours},
                        {"det-formation", &det}};

  for (const auto& [name, algo] : algos) {
    for (const std::string startKind : {"random", "symmetric"}) {
      for (std::size_t n : {8, 12}) {
        const std::string cell = cellName(name, "_", startKind, "_n", n);
        const auto results = runCell(table, cell, kSeeds, [&](int s) {
          config::Configuration start;
          if (startKind == "random") {
            config::Rng rng(600 + s);
            start = config::randomConfiguration(n, rng, 4.0, 0.1);
          } else {
            start = symmetricStart(n, 600 + s);
          }
          sim::EngineOptions opts;
          opts.seed = 37 * s + 11;
          opts.maxEvents = kMaxEvents;
          return Run{std::move(start), io::randomPatternByName(n, 300 + s),
                     *algo, opts};
        });
        int stuck = 0;
        std::vector<double> bits;
        for (const auto& res : results) {
          // "Stuck": terminated without success and without any movement —
          // the deterministic impossibility made visible.
          if (res.terminated && !res.success && res.metrics.distance == 0.0) {
            ++stuck;
          }
          bits.push_back(static_cast<double>(res.metrics.randomBits));
        }
        table.row({name, startKind, std::to_string(n),
                   tally(results).rate(), fraction(stuck, results.size()),
                   io::fmt(statsOf(bits).mean, 1)});
      }
    }
  }
  table.print();
  return 0;
}

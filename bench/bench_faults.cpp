/// \file bench_faults.cpp
/// Degradation measurement under injected faults: sweep crash count
/// f in {0, 1, 2} x Look-noise sigma x snapshot-omission probability on the
/// reference configurations of bench_scheduler (n = 10, random starts and
/// patterns, ASYNC earlyStop 0.5), and tabulate per-cell run outcomes
/// {success, crashed_short, stalled, safety_violation} plus an
/// approximate-success column (pattern matched within 2% of the SEC
/// radius — the "came close" grade exact matching hides under noise).
///
/// The f=0 / sigma=0 / omit=0 cell reproduces bench_scheduler's
/// ASYNC earlyStop=0.5 row exactly (same starts, patterns, and seeds).
///
/// Measured shape (results/bench_faults.csv): success is monotone
/// non-increasing in f and in sigma. Crashes leave survivors safely parked
/// short of the pattern (crashed_short); persistent noise defeats the
/// phase detection entirely, so those runs burn the whole event budget
/// without converging (stalled at the cap); omission only slows progress —
/// psi_DPF refuses to act on snapshots whose cardinality disagrees with
/// the pattern, so a fraction of runs still finish within budget.

#include "bench/common.h"
#include "config/similarity.h"
#include "core/form_pattern.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_faults");
  const int kSeeds = 10;
  const std::size_t kN = 10;
  core::FormPatternAlgorithm algo;

  Table table(
      "TF: fault degradation (n = 10, ASYNC 0.5, reference starts/patterns)",
      "bench_faults.csv",
      {"f", "sigma", "omit", "success", "approx", "crashed_short", "stalled",
       "violation", "events_mean"});

  const int crashCounts[] = {0, 1, 2};
  const double sigmas[] = {0.0, 0.02, 0.1};
  const double omits[] = {0.0, 0.1};

  // Reference configurations: identical to bench_scheduler's ASYNC
  // earlyStop=0.5 row so the clean cell cross-checks it. The pattern is
  // built again after the run to grade `approx`.
  auto patternOf = [&](int s) { return io::randomPatternByName(kN, 90 + s); };

  for (const int f : crashCounts) {
    for (const double sigma : sigmas) {
      for (const double omit : omits) {
        const bool faulty = f > 0 || sigma > 0.0 || omit > 0.0;
        const std::string cell = cellName("f", f, "_s", io::fmt(sigma, 2),
                                          "_o", io::fmt(omit, 2));
        const auto results = runCell(table, cell, kSeeds, [&](int s) {
          config::Rng rng(810 + s);
          sim::EngineOptions opts;
          opts.sched.kind = sched::SchedulerKind::Async;
          opts.seed = 23 * s + 9;
          opts.sched.earlyStopProb = 0.5;
          // Clean reference cell keeps bench_scheduler's event budget;
          // fault cells cap earlier (clean runs settle in ~1.2k events, and
          // sensor-faulted runs cannot end by quiescence, only by success
          // poll or this cap) — a faulted run that has not settled within
          // 50x the clean budget is the degradation being measured.
          opts.maxEvents = faulty ? 60000 : 2000000;
          opts.fault.noiseSigma = sigma;
          opts.fault.omitProb = omit;
          opts.fault.seed = opts.seed;
          if (f > 0) {
            // Crashes land inside the active phase of a typical clean run
            // (events_mean ~1.2k): the adversary strikes while it hurts.
            opts.fault.crashes =
                fault::planWithRandomCrashes(kN, f, opts.seed, 800).crashes;
          }
          return Run{config::randomConfiguration(kN, rng, 5.0, 0.1),
                     patternOf(s), algo, opts};
        });
        int byOutcome[4] = {0, 0, 0, 0};
        int approx = 0;
        std::vector<double> events;
        for (int s = 0; s < kSeeds; ++s) {
          const sim::RunResult& res = results[s];
          byOutcome[static_cast<int>(res.outcome)] += 1;
          approx += config::similar(res.finalPositions, patternOf(s),
                                    geom::Tol{2e-2, 2e-2});
          events.push_back(static_cast<double>(res.metrics.events));
        }
        auto frac = [&](sim::Outcome o) {
          return fraction(byOutcome[static_cast<int>(o)], kSeeds);
        };
        table.row({std::to_string(f), io::fmt(sigma, 2), io::fmt(omit, 2),
                   frac(sim::Outcome::Success), fraction(approx, kSeeds),
                   frac(sim::Outcome::CrashedShort),
                   frac(sim::Outcome::Stalled),
                   frac(sim::Outcome::SafetyViolation),
                   io::fmt(statsOf(events).mean, 0)});
      }
    }
  }
  table.print();
  return 0;
}

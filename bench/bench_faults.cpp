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
  apf::bench::TraceSession trace("bench_faults");
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

  // Every cell runs under the campaign supervisor (sim/supervisor.h): a
  // livelocked run trips the cycle watchdog and lands in quarantine
  // instead of wedging the table. The budget sits above every cell's
  // maxEvents, so a run that respects its own cap never times out and the
  // CSV stays bit-identical to the unsupervised bench.
  sim::SupervisorOptions supOpts;
  supOpts.cycleBudget = 3'000'000;
  sim::SupervisorReport supTotal;

  // Per-cell seeds 0..kSeeds-1 fan out across the campaign pool
  // (sim/campaign.h); each worker builds its own start/pattern/fault plan,
  // and the in-order merge keeps every CSV row identical for any APF_JOBS.
  long obsBase = 0;

  for (const int f : crashCounts) {
    for (const double sigma : sigmas) {
      for (const double omit : omits) {
        const bool faulty = f > 0 || sigma > 0.0 || omit > 0.0;
        struct CellRun {
          sim::RunResult res;
          bool approx = false;
        };
        std::vector<CellRun> results(kSeeds);
        const sim::SupervisorReport cellReport = sim::superviseCampaign(
            0, kSeeds,
            [&](std::size_t seedIndex, const sim::Attempt& att) {
          const int s = static_cast<int>(seedIndex);
          // Reference configurations: identical to bench_scheduler's
          // ASYNC earlyStop=0.5 row so the clean cell cross-checks it.
          config::Rng rng(810 + s);
          const auto start = config::randomConfiguration(kN, rng, 5.0, 0.1);
          const auto pattern = io::randomPatternByName(kN, 90 + s);
          RunSpec spec;
          spec.sched = sched::SchedulerKind::Async;
          spec.seed = 23 * s + 9;
          spec.earlyStopProb = 0.5;
          // Clean reference cell keeps bench_scheduler's event budget;
          // fault cells cap earlier (clean runs settle in ~1.2k events, and
          // sensor-faulted runs cannot end by quiescence, only by success
          // poll or this cap) — a faulted run that has not settled within
          // 50x the clean budget is the degradation being measured.
          spec.maxEvents = faulty ? 60000 : 2000000;
          spec.fault.noiseSigma = sigma;
          spec.fault.omitProb = omit;
          spec.fault.seed = spec.seed;
          if (f > 0) {
            // Crashes land inside the active phase of a typical clean run
            // (events_mean ~1.2k): the adversary strikes while it hurts.
            spec.fault.crashes =
                fault::planWithRandomCrashes(kN, f, spec.seed, 800).crashes;
          }
          spec.label = "faults";
          spec.obsIndex = obsBase + s;
          // Attempt::seedSalt is deliberately NOT folded into spec.seed:
          // bench rows are reference numbers, so a (never expected) retry
          // re-measures the same run instead of a reseeded variant.
          spec.watchdog = att.watchdog;
          CellRun out;
          out.res = runOnce(start, pattern, algo, spec);
          out.approx = config::similar(out.res.finalPositions, pattern,
                                       geom::Tol{2e-2, 2e-2});
          return out;
        },
            [&](std::size_t i, CellRun&& run) { results[i] = std::move(run); },
            supOpts);
        supTotal.absorb(cellReport);
        if (!cellReport.allCompleted()) {
          std::fprintf(stderr,
                       "bench_faults: %llu run(s) quarantined in cell f=%d "
                       "sigma=%.2f omit=%.2f (their rows count as defaults)\n",
                       static_cast<unsigned long long>(
                           cellReport.quarantined),
                       f, sigma, omit);
        }
        obsBase += kSeeds;
        int byOutcome[4] = {0, 0, 0, 0};
        int approx = 0;
        std::vector<double> events;
        for (const auto& run : results) {
          byOutcome[static_cast<int>(run.res.outcome)] += 1;
          approx += run.approx;
          events.push_back(static_cast<double>(run.res.metrics.events));
        }
        auto frac = [&](sim::Outcome o) {
          return std::to_string(byOutcome[static_cast<int>(o)]) + "/" +
                 std::to_string(kSeeds);
        };
        table.row({std::to_string(f), io::fmt(sigma, 2), io::fmt(omit, 2),
                   frac(sim::Outcome::Success), std::to_string(approx) + "/" +
                       std::to_string(kSeeds),
                   frac(sim::Outcome::CrashedShort),
                   frac(sim::Outcome::Stalled),
                   frac(sim::Outcome::SafetyViolation),
                   io::fmt(statsOf(events).mean, 0)});
        table.recordRuns("f" + std::to_string(f) + "_s" + io::fmt(sigma, 2) +
                             "_o" + io::fmt(omit, 2),
                         static_cast<std::uint64_t>(kSeeds));
      }
    }
  }
  sim::appendManifest(supOpts, supTotal, table.meta());
  table.print();
  return 0;
}

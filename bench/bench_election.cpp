/// \file bench_election.cpp
/// Experiment T2 / F2 (Lemmas 1-2): the randomized election terminates with
/// probability 1. From fully symmetric starts (where any deterministic
/// election is impossible), psi_RSB runs until a selected robot exists.
/// Reports per-n, per-scheduler cycle counts (mean/p50/p95) and random-bit
/// usage, plus the cycle-count CDF as a printed series (figure data).
///
/// Expected shape: success on every seed; common-case cycles grow mildly
/// with n; bits consumed ~= number of election activations (1 bit each).

#include "bench/common.h"
#include "core/rsb.h"

using namespace apf;
using namespace apf::bench;

int main() {
  TraceSession trace("bench_election");
  const int kSeeds = 60;
  core::RsbOnlyAlgorithm rsb;

  Table table("T2: psi_RSB election from symmetric starts",
              "bench_election.csv",
              {"n", "sched", "success", "cycles_mean", "cycles_p50",
               "cycles_p95", "bits_mean", "bits_per_cycle"});

  std::vector<std::pair<std::string, sched::SchedulerKind>> scheds = {
      {"SSYNC", sched::SchedulerKind::SSync},
      {"ASYNC", sched::SchedulerKind::Async}};

  std::vector<std::vector<double>> cdfData;  // ASYNC cycles per n for F2
  std::vector<std::size_t> cdfNs;

  for (std::size_t n : {8, 12, 16, 24, 32}) {
    for (const auto& [schedName, kind] : scheds) {
      const std::string cell = cellName("n", n, "_", schedName);
      const Tally t = tally(runCell(table, cell, kSeeds, [&](int s) {
        sim::EngineOptions opts;
        opts.sched.kind = kind;
        opts.seed = 7 * s + 1;
        opts.maxEvents = kMaxEvents;
        return Run{symmetricStart(n, 1000 + s), io::starPattern(n), rsb, opts};
      }), &sim::RunResult::terminated);
      const Stats cs = statsOf(t.cycles);
      const Stats bs = statsOf(t.bits);
      table.row({std::to_string(n), schedName, t.rate(), io::fmt(cs.mean, 1),
                 io::fmt(cs.p50, 0), io::fmt(cs.p95, 0), io::fmt(bs.mean, 1),
                 io::fmt(cs.mean > 0 ? bs.mean / cs.mean : 0.0, 4)});
      if (kind == sched::SchedulerKind::Async) {
        cdfData.push_back(t.cycles);
        cdfNs.push_back(n);
      }
    }
  }
  table.print();

  Table cdf("F2: election cycles CDF (ASYNC), deciles",
            "bench_election_cdf.csv",
            {"n", "d10", "d20", "d30", "d40", "d50", "d60", "d70", "d80",
             "d90", "d100"});
  for (std::size_t k = 0; k < cdfData.size(); ++k) {
    auto xs = cdfData[k];
    std::sort(xs.begin(), xs.end());
    std::vector<std::string> row{std::to_string(cdfNs[k])};
    for (int d = 1; d <= 10; ++d) {
      const std::size_t idx =
          std::min(xs.size() - 1, (d * xs.size()) / 10);
      row.push_back(io::fmt(xs.empty() ? 0.0 : xs[idx == 0 ? 0 : idx - 1], 0));
    }
    cdf.row(row);
  }
  cdf.print();
  return 0;
}

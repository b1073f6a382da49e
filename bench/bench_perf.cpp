/// \file bench_perf.cpp
/// TP — perf-baseline harness. Times representative workloads and emits a
/// machine-readable `BENCH_perf.json` next to the CSVs (results/ or
/// APF_RESULTS_DIR), so every future PR can regress against this one:
///
///  * campaign throughput: election (psi_RSB from symmetric starts) and
///    formation (full algorithm from random starts) campaigns at
///    n in {16, 64, 256}, each measured serially (jobs = 1) and on the
///    campaign thread pool (jobs = APF_JOBS / hardware concurrency), with
///    an in-process determinism cross-check that both produce identical
///    aggregates;
///  * geometry microbenches: fresh Welzl SEC vs the memoized
///    Configuration::sec() cache, and the Weiszfeld Weber point;
///  * engine hot loop: Engine::step() driven directly under a trivial
///    always-move algorithm, reporting events_per_sec AND allocs_per_event
///    (this binary links src/obs/alloc_hook.cpp, so obs::allocStats()
///    counts every operator new). The scratch-buffer engine holds
///    allocs_per_event at 0 in steady state; tools/apf_bench_diff gates the
///    exact count so any new per-event allocation fails CI.
///
/// Runs are capped by a fixed event budget so a workload is a bounded,
/// deterministic amount of work whether or not individual runs converge.
/// `--quick` shrinks every workload for the CI perf smoke job.

#include <sys/resource.h>

#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench/common.h"
#include "core/form_pattern.h"
#include "core/rsb.h"
#include "geom/sec.h"
#include "geom/weber.h"
#include "obs/alloc.h"
#include "obs/json.h"
#include "obs/stats.h"
#include "sim/campaign.h"

using namespace apf;
using namespace apf::bench;

namespace {

struct WorkloadResult {
  std::string workload;
  std::size_t n = 0;
  int jobs = 1;
  int runs = 0;  ///< campaign runs, or micro-bench iterations
  double wallMs = 0.0;
  double perSec = 0.0;   ///< runs (or ops) per second
  double speedup = 1.0;  ///< vs. the serial / un-memoized baseline
  /// Pool telemetry, present on parallel campaign rows only.
  bool hasPool = false;
  sim::CampaignStats pool;
  /// Allocation accounting, present on engine hot-loop rows only.
  bool hasAlloc = false;
  std::uint64_t allocs = 0;       ///< operator-new calls in the timed region
  double allocsPerEvent = 0.0;    ///< allocs / events (0 in steady state)
};

/// Order-independent campaign fingerprint for the determinism cross-check.
/// Includes the geometry-cache counters: their per-run deltas are
/// thread-confined (sim/metrics.h), so serial and pooled campaigns must
/// agree on the sums too.
struct Aggregate {
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t randomBits = 0;
  std::uint64_t secCacheHits = 0;
  std::uint64_t secCacheMisses = 0;
  std::uint64_t weberCacheHits = 0;
  std::uint64_t weberCacheMisses = 0;
  int successes = 0;
  bool operator==(const Aggregate&) const = default;
};

template <typename F>
double timeMs(F&& f) {
  const std::uint64_t t0 = obs::nowNanos();
  f();
  return static_cast<double>(obs::nowNanos() - t0) / 1e6;
}

Aggregate runWorkload(bool formation, std::size_t n, int runs,
                      std::uint64_t maxEvents, int jobs,
                      sim::CampaignStats* stats = nullptr) {
  core::FormPatternAlgorithm form;
  core::RsbOnlyAlgorithm rsb;
  const sim::Algorithm& algo =
      formation ? static_cast<const sim::Algorithm&>(form)
                : static_cast<const sim::Algorithm&>(rsb);
  std::vector<int> seeds(static_cast<std::size_t>(runs));
  std::iota(seeds.begin(), seeds.end(), 0);
  Aggregate agg;
  sim::runCampaign(
      seeds,
      [&](int s, std::size_t) {
        config::Configuration start, pattern;
        sim::EngineOptions opts;
        if (formation) {
          config::Rng rng(500 + s);
          start = config::randomConfiguration(n, rng, 5.0, 0.1);
          pattern = io::randomPatternByName(n, 40 + s);
          opts.seed = 13 * static_cast<std::uint64_t>(s) + 2;
        } else {
          start = symmetricStart(n, 1000 + static_cast<std::uint64_t>(s));
          pattern = io::starPattern(n);
          opts.seed = 7 * static_cast<std::uint64_t>(s) + 1;
        }
        opts.maxEvents = maxEvents;
        opts.sched.kind = sched::SchedulerKind::Async;
        sim::Engine eng(start, pattern, algo, opts);
        return eng.run();
      },
      [&](std::size_t, sim::RunResult&& res) {
        agg.events += res.metrics.events;
        agg.cycles += res.metrics.cycles;
        agg.randomBits += res.metrics.randomBits;
        agg.secCacheHits += res.metrics.secCacheHits;
        agg.secCacheMisses += res.metrics.secCacheMisses;
        agg.weberCacheHits += res.metrics.weberCacheHits;
        agg.weberCacheMisses += res.metrics.weberCacheMisses;
        agg.successes += res.success;
      },
      jobs, stats);
  return agg;
}

/// Always-move algorithm for the hot-loop row: one inline line segment per
/// Compute, never terminates. Deliberately trivial so the measurement
/// isolates the engine's own look/compute/move machinery (snapshot refresh,
/// fault filters, scheduler bookkeeping) rather than algorithm geometry —
/// exactly the code the scratch workspace made allocation-free.
class DriftAlgorithm final : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot&,
                      sched::RandomSource&) const override {
    sim::Action act;
    act.path = geom::Path({0.0, 0.0});
    act.path.lineTo({0.01, 0.0});
    act.phaseTag = 1;
    return act;
  }
  std::string name() const override { return "drift"; }
};

struct HotLoopResult {
  double wallMs = 0.0;
  std::uint64_t allocs = 0;
};

/// Drives Engine::step() for `events` scheduler events after a warmup that
/// reaches buffer steady state (scratch capacities grown, per-robot
/// snapshot storage in place), then reports wall time and the exact
/// operator-new count of the measured region.
HotLoopResult runHotLoop(std::size_t n, std::uint64_t events,
                         bool withFaults) {
  DriftAlgorithm drift;
  config::Rng rng(90 + n);
  const auto start = config::randomConfiguration(n, rng, 5.0, 0.1);
  const auto pattern = io::starPattern(n);
  sim::EngineOptions opts;
  opts.seed = 1234;
  opts.sched.kind = sched::SchedulerKind::Async;
  if (withFaults) {
    opts.fault.noiseSigma = 0.01;
    opts.fault.omitProb = 0.02;
    opts.fault.multFlipProb = 0.01;
    opts.fault.dropProb = 0.02;
    opts.fault.truncProb = 0.05;
    opts.fault.seed = 7;
  }
  sim::Engine eng(start, pattern, drift, opts);
  for (int w = 0; w < 4096; ++w) eng.step();
  HotLoopResult out;
  const obs::AllocStats before = obs::allocStats();
  out.wallMs = timeMs([&] {
    for (std::uint64_t e = 0; e < events; ++e) eng.step();
  });
  const obs::AllocStats after = obs::allocStats();
  out.allocs = after.news - before.news;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  // APF_OBS_TRACE=1 captures every engine/campaign span of the bench into
  // results/bench_perf.trace.json (timing numbers then include the ~2
  // clock reads per span; don't mix traced and untraced baselines).
  TraceSession trace("bench_perf");
  const int parJobs = sim::campaignJobs();

  Table table("TP: perf baseline (campaign throughput + geometry micro)",
              "bench_perf.csv",
              {"workload", "n", "jobs", "runs", "wall_ms", "per_sec",
               "speedup"});
  std::vector<WorkloadResult> out;
  auto record = [&](WorkloadResult w) {
    table.row({w.workload, std::to_string(w.n), std::to_string(w.jobs),
               std::to_string(w.runs), io::fmt(w.wallMs, 1),
               io::fmt(w.perSec, 2), io::fmt(w.speedup, 2)});
    out.push_back(std::move(w));
  };
  auto make = [](const char* workload, std::size_t n, int jobs, int runs,
                 double wallMs, double perSec, double speedup) {
    WorkloadResult w;
    w.workload = workload;
    w.n = n;
    w.jobs = jobs;
    w.runs = runs;
    w.wallMs = wallMs;
    w.perSec = perSec;
    w.speedup = speedup;
    return w;
  };

  // --- campaign throughput -----------------------------------------------
  // Event caps and run counts are sized per cell so each measurement is a
  // few tens of seconds of work on one core — per-event cost spans three
  // orders of magnitude between n=16 and n=256 (the n=256 formation
  // compute runs the Weber point and shifted-regular detection each event).
  struct Cell {
    const char* name;
    bool formation;
    std::size_t n;
    std::uint64_t maxEvents;
    int runs;
  };
  const Cell cells[] = {
      {"election_campaign", false, 16, 8000, 8},
      {"election_campaign", false, 64, 1200, 8},
      {"election_campaign", false, 256, 300, 8},
      {"formation_campaign", true, 16, 8000, 8},
      {"formation_campaign", true, 64, 2400, 8},
      {"formation_campaign", true, 256, 150, 4},
  };
  // Pool behavior aggregated over every parallel campaign in the bench;
  // attached to the CSV manifest under campaign.* for apf_report.
  sim::CampaignStats poolTotal;
  // Geometry-cache totals over every campaign run the bench executed
  // (serial and pooled); surfaced as campaign.geom.* manifest keys.
  Aggregate geomTotal;
  auto foldPool = [&](const sim::CampaignStats& s) {
    poolTotal.jobs = std::max(poolTotal.jobs, s.jobs);
    poolTotal.items += s.items;
    poolTotal.wallNanos += s.wallNanos;
    poolTotal.workerBusyNanos += s.workerBusyNanos;
    poolTotal.workerIdleNanos += s.workerIdleNanos;
    poolTotal.mailboxHighWater =
        std::max(poolTotal.mailboxHighWater, s.mailboxHighWater);
    poolTotal.pendingHighWater =
        std::max(poolTotal.pendingHighWater, s.pendingHighWater);
    poolTotal.mergeStallNanos += s.mergeStallNanos;
    poolTotal.mergeNanos += s.mergeNanos;
  };
  for (const Cell& cell : cells) {
    const std::uint64_t cap =
        quick ? std::max<std::uint64_t>(50, cell.maxEvents / 4)
              : cell.maxEvents;
    const int runs = quick ? std::max(2, cell.runs / 2) : cell.runs;
    Aggregate serialAgg, parAgg;
    sim::CampaignStats poolStats;
    const double serialMs = timeMs([&] {
      serialAgg = runWorkload(cell.formation, cell.n, runs, cap, 1);
    });
    const double parMs = timeMs([&] {
      parAgg = runWorkload(cell.formation, cell.n, runs, cap, parJobs,
                           &poolStats);
    });
    if (!(serialAgg == parAgg)) {
      std::fprintf(stderr,
                   "FATAL: %s n=%zu: parallel aggregate differs from serial "
                   "(determinism violation)\n",
                   cell.name, cell.n);
      return 1;
    }
    record(make(cell.name, cell.n, 1, runs, serialMs,
                1000.0 * runs / serialMs, 1.0));
    WorkloadResult par = make(cell.name, cell.n, parJobs, runs, parMs,
                              1000.0 * runs / parMs, serialMs / parMs);
    par.hasPool = true;
    par.pool = poolStats;
    foldPool(poolStats);
    record(std::move(par));
    geomTotal.secCacheHits += serialAgg.secCacheHits + parAgg.secCacheHits;
    geomTotal.secCacheMisses +=
        serialAgg.secCacheMisses + parAgg.secCacheMisses;
    geomTotal.weberCacheHits +=
        serialAgg.weberCacheHits + parAgg.weberCacheHits;
    geomTotal.weberCacheMisses +=
        serialAgg.weberCacheMisses + parAgg.weberCacheMisses;
  }

  // --- engine hot loop ----------------------------------------------------
  // runs == scheduler events here, so runs_per_sec is events_per_sec and
  // the standard throughput gate applies; allocs_per_event is additionally
  // gated exactly (tools/apf_bench_diff) — steady state must stay at 0.
  const std::uint64_t hotEvents = quick ? 20000 : 200000;
  for (const bool withFaults : {false, true}) {
    const HotLoopResult hot = runHotLoop(16, hotEvents, withFaults);
    WorkloadResult w =
        make(withFaults ? "engine_hot_loop_fault" : "engine_hot_loop", 16, 1,
             static_cast<int>(hotEvents), hot.wallMs,
             1000.0 * static_cast<double>(hotEvents) / hot.wallMs, 1.0);
    w.hasAlloc = true;
    w.allocs = hot.allocs;
    w.allocsPerEvent =
        static_cast<double>(hot.allocs) / static_cast<double>(hotEvents);
    record(std::move(w));
  }

  // --- geometry microbenches ---------------------------------------------
  double checksum = 0.0;  // defeat dead-code elimination
  for (std::size_t n : {16, 64, 256}) {
    config::Rng rng(42 + n);
    const auto cfg = config::randomConfiguration(n, rng, 5.0, 0.1);
    const int secIters = (quick ? 200 : 2000) * 64 / static_cast<int>(n);
    const double freshMs = timeMs([&] {
      for (int i = 0; i < secIters; ++i) {
        checksum += geom::smallestEnclosingCircle(cfg.span()).radius;
      }
    });
    record(make("sec_fresh", n, 1, secIters, freshMs,
                1000.0 * secIters / freshMs, 1.0));
    const double cachedMs = timeMs([&] {
      for (int i = 0; i < secIters; ++i) checksum += cfg.sec().radius;
    });
    // For sec_cached, "speedup" is the memoization win over sec_fresh.
    record(make("sec_cached", n, 1, secIters, cachedMs,
                1000.0 * secIters / cachedMs,
                cachedMs > 0.0 ? freshMs / cachedMs : 0.0));
    const int weberIters = std::max(5, (quick ? 20 : 200) * 64 /
                                           static_cast<int>(n));
    const double weberMs = timeMs([&] {
      for (int i = 0; i < weberIters; ++i) {
        checksum += geom::weberPoint(cfg.span()).x;
      }
    });
    record(make("weber", n, 1, weberIters, weberMs,
                1000.0 * weberIters / weberMs, 1.0));
  }

  // Peak RSS (all workloads have run by now): memory regressions show up
  // in the manifest and BENCH_perf.json even when throughput holds.
  std::uint64_t peakRssKb = 0;
  {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
      peakRssKb = static_cast<std::uint64_t>(ru.ru_maxrss);  // KB on Linux
    }
  }
  sim::appendManifest(poolTotal, table.meta());
  table.meta().set("campaign.geom.sec_cache_hits", geomTotal.secCacheHits);
  table.meta().set("campaign.geom.sec_cache_misses",
                   geomTotal.secCacheMisses);
  table.meta().set("campaign.geom.weber_cache_hits",
                   geomTotal.weberCacheHits);
  table.meta().set("campaign.geom.weber_cache_misses",
                   geomTotal.weberCacheMisses);
  table.meta().set("bench.peak_rss_kb", peakRssKb);
  table.print();
  std::printf("(checksum %.3f, hardware_concurrency %u)\n", checksum,
              std::thread::hardware_concurrency());
  for (const WorkloadResult& w : out) {
    if (!w.hasAlloc) continue;
    std::printf(
        "%s: %.0f events/s, allocs_per_event %.6f (%llu allocs / %d "
        "events)%s\n",
        w.workload.c_str(), w.perSec, w.allocsPerEvent,
        static_cast<unsigned long long>(w.allocs), w.runs,
        obs::allocCountingActive() ? "" : " [alloc counting INACTIVE]");
  }
  std::printf("peak RSS: %llu KB\n",
              static_cast<unsigned long long>(peakRssKb));
  std::printf(
      "campaign pool: jobs %d, utilization %.1f%%, mailbox hwm %llu, "
      "pending hwm %llu, merge stall %.1f ms\n",
      poolTotal.jobs, 100.0 * poolTotal.utilization(),
      static_cast<unsigned long long>(poolTotal.mailboxHighWater),
      static_cast<unsigned long long>(poolTotal.pendingHighWater),
      static_cast<double>(poolTotal.mergeStallNanos) / 1e6);

  // --- BENCH_perf.json ----------------------------------------------------
  std::string entries;
  for (const WorkloadResult& w : out) {
    obs::JsonObjectWriter jw;
    jw.field("workload", w.workload);
    jw.field("n", static_cast<std::uint64_t>(w.n));
    jw.field("jobs", w.jobs);
    jw.field("runs", w.runs);
    jw.field("wall_ms", w.wallMs);
    jw.field("runs_per_sec", w.perSec);
    jw.field("speedup_vs_serial", w.speedup);
    if (w.hasPool) {
      jw.field("pool_utilization", w.pool.utilization());
      jw.field("pool_mailbox_high_water", w.pool.mailboxHighWater);
      jw.field("pool_pending_high_water", w.pool.pendingHighWater);
      jw.field("pool_merge_stall_ms",
               static_cast<double>(w.pool.mergeStallNanos) / 1e6);
    }
    if (w.hasAlloc) {
      jw.field("events_per_sec", w.perSec);
      jw.field("allocs", w.allocs);
      jw.field("allocs_per_event", w.allocsPerEvent);
    }
    if (!entries.empty()) entries += ",";
    entries += jw.str();
  }
  obs::JsonObjectWriter top;
  top.field("schema", "apf.bench_perf.v1");
  top.field("quick", quick);
  top.field("hardware_concurrency",
            static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  top.field("serial_jobs", 1);
  top.field("parallel_jobs", parJobs);
  top.field("alloc_counting", obs::allocCountingActive());
  top.field("peak_rss_kb", peakRssKb);
  {
    obs::Manifest cm;
    sim::appendManifest(poolTotal, cm);
    cm.set("campaign.geom.sec_cache_hits", geomTotal.secCacheHits);
    cm.set("campaign.geom.sec_cache_misses", geomTotal.secCacheMisses);
    cm.set("campaign.geom.weber_cache_hits", geomTotal.weberCacheHits);
    cm.set("campaign.geom.weber_cache_misses", geomTotal.weberCacheMisses);
    obs::JsonObjectWriter cw;
    for (const auto& [k, v] : cm.entries()) {
      // Strip the "campaign." prefix: the keys nest under one object here.
      cw.rawField(k.substr(k.find('.') + 1), v);
    }
    top.rawField("campaign", cw.str());
  }
  top.rawField("workloads", "[" + entries + "]");
  const std::string jsonPath = resultsPath("BENCH_perf.json");
  std::ofstream js(jsonPath);
  js << top.str() << "\n";
  if (!js) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", jsonPath.c_str());
  return 0;
}

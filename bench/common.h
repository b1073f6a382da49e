#pragma once

/// \file common.h
/// Shared harness for the experiment benchmarks (T2-T9 in DESIGN.md): run
/// matrices of simulations, aggregate the metrics the paper's claims are
/// stated in, and print aligned tables (also dumped as CSV next to the
/// binary's working directory).
///
/// Telemetry: when the APF_OBS_DIR environment variable is set, every
/// simulation run writes a reproducibility manifest
/// (`<algo>_<sched>_n<n>_<k>.manifest.json`) into that directory, and —
/// with APF_OBS_EVENTS=1 — a JSONL event log next to it. `apf_report DIR`
/// then reproduces the CSV numbers from the raw per-run records. Each CSV
/// table also gets a `<csv>.manifest.json` describing the producing build.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "cli/env.h"
#include "config/configuration.h"
#include "config/generator.h"
#include "fault/fault.h"
#include "io/csv.h"
#include "io/patterns.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "sim/campaign.h"
#include "sim/engine.h"

namespace apf::bench {

/// Event cap of a bench run that sets no cap of its own.
inline constexpr std::uint64_t kMaxEvents = 600000;

/// Directory every bench CSV (and its manifest) is written under:
/// APF_RESULTS_DIR when set, else "results" relative to the working
/// directory (the repo checkout keeps the canonical copies there). Created
/// on first use. Benches must never write to the repo root — stale
/// root-level copies of results/*.csv kept forking the two locations.
/// Environment parsing lives in cli::env() (src/cli/env.h), the one
/// parsed-and-validated-once snapshot all tools and benches share.
inline const std::string& resultsDir() {
  static const std::string dir = [] {
    const std::string& d = cli::env().resultsDir;
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

/// Joins a bare CSV filename onto resultsDir(); absolute paths and paths
/// that already name a directory are passed through.
inline std::string resultsPath(const std::string& file) {
  if (file.empty()) return file;
  const std::filesystem::path p(file);
  if (p.is_absolute() || p.has_parent_path()) return file;
  return (std::filesystem::path(resultsDir()) / p).string();
}

/// Telemetry directory from APF_OBS_DIR (nullptr = telemetry off).
inline const char* obsDir() {
  const std::string& d = cli::env().obsDir;
  return d.empty() ? nullptr : d.c_str();
}

/// Whether to also write per-run JSONL event logs (APF_OBS_EVENTS=1).
inline bool obsEvents() { return cli::env().obsEvents; }

/// Whether to capture a Chrome trace of the whole bench (APF_OBS_TRACE=1).
inline bool obsTrace() { return cli::env().obsTrace; }

/// RAII trace capture for a bench binary. When APF_OBS_TRACE=1, installs an
/// obs::SpanCollector for the object's lifetime and writes
/// `<name>.trace.json` (into APF_OBS_DIR when set, else resultsDir()) at
/// destruction — load it in chrome://tracing or Perfetto. When the variable
/// is unset this is a no-op and every ScopedSpan in the bench stays on the
/// one-branch null-sink path. Construct in main() before any campaign and
/// destroy after all worker threads have joined (the collector's snapshot
/// contract); campaigns inside a bench always join before returning, so
/// scoping the session to main() satisfies this.
class TraceSession {
 public:
  explicit TraceSession(const std::string& name) {
    if (!obsTrace()) return;
    const char* dir = obsDir();
    const std::string d = dir != nullptr ? std::string(dir) : resultsDir();
    std::filesystem::create_directories(d);
    path_ = d + "/" + name + ".trace.json";
    collector_ = std::make_unique<obs::SpanCollector>();
    collector_->install();
  }
  ~TraceSession() {
    if (!collector_) return;
    obs::SpanCollector::uninstall();
    try {
      collector_->writeChromeTrace(path_);
      std::fprintf(stderr, "trace: wrote %s (%llu spans, %llu dropped)\n",
                   path_.c_str(),
                   static_cast<unsigned long long>(
                       collector_->snapshot().size()),
                   static_cast<unsigned long long>(
                       collector_->droppedCount()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: FAILED to write %s: %s\n", path_.c_str(),
                   e.what());
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::unique_ptr<obs::SpanCollector> collector_;
  std::string path_;
};

/// One run of a bench cell. `algo` is not owned: benches keep their
/// algorithms in main(), alive across every cell.
struct Run {
  config::Configuration start;
  config::Configuration pattern;
  const sim::Algorithm& algo;
  sim::EngineOptions opts;
};

/// Runs one simulation. Under APF_OBS_DIR it writes a manifest (and, with
/// APF_OBS_EVENTS=1, the JSONL log) numbered `obsIndex`.
inline sim::RunResult runOnce(const Run& run, long obsIndex) {
  sim::EngineOptions opts = run.opts;
  const char* dir = obsDir();
  std::unique_ptr<obs::JsonlRecorder> sink;
  std::string base;
  if (dir != nullptr) {
    std::filesystem::create_directories(dir);
    base = std::string(dir) + "/" + run.algo.name() + "_" +
           sched::schedulerName(opts.sched.kind) + "_n" +
           std::to_string(run.start.size()) + "_" + std::to_string(obsIndex);
    opts.collectTimings = true;
    if (obsEvents()) {
      sink = std::make_unique<obs::JsonlRecorder>(base + ".jsonl");
      opts.recorder = sink.get();
    }
  }

  sim::Engine eng(run.start, run.pattern, run.algo, opts);
  const sim::RunResult res = eng.run();

  if (dir != nullptr) {
    obs::Manifest m = sim::describeRun(opts, run.algo.name(),
                                       "(inline points)", run.start.size());
    sim::appendResult(m, res);
    m.write(base + ".manifest.json");
  }
  return res;
}

/// Telemetry index of the bench's next run; only runCell's calling thread
/// advances it.
inline long nextObsIndex = 0;

/// A cell name from its parts, numbers printed with std::to_string:
/// cellName(algo, "_n", n). Appended piecewise, since GCC 12 false-fires
/// -Wrestrict at -O3 on `"a" + s + "b"` chains.
template <typename... Parts>
std::string cellName(const Parts&... parts) {
  std::string out;
  const auto add = [&out](const auto& part) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>) {
      out += std::to_string(part);
    } else {
      out += part;
    }
  };
  (add(parts), ...);
  return out;
}

/// "k/n", the way every table prints a count of runs.
inline std::string fraction(int k, std::size_t n) {
  return std::to_string(k) + "/" + std::to_string(n);
}

/// The runs of a cell that count — those whose `counted` flag is set
/// (RunResult::success or ::terminated) — and their cycles, random bits,
/// events and distance.
struct Tally {
  int ok = 0;
  std::size_t runs = 0;
  std::vector<double> cycles, bits, events, dist;

  /// "ok/runs".
  std::string rate() const { return fraction(ok, runs); }
};

inline Tally tally(const std::vector<sim::RunResult>& results,
                   bool sim::RunResult::*counted = &sim::RunResult::success) {
  Tally t;
  t.runs = results.size();
  for (const sim::RunResult& res : results) {
    if (!(res.*counted)) continue;
    ++t.ok;
    t.cycles.push_back(static_cast<double>(res.metrics.cycles));
    t.bits.push_back(static_cast<double>(res.metrics.randomBits));
    t.events.push_back(static_cast<double>(res.metrics.events));
    t.dist.push_back(res.metrics.distance);
  }
  return t;
}

struct Stats {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Stats statsOf(std::vector<double> xs) {
  Stats s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  s.mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  s.p50 = xs[xs.size() / 2];
  s.p95 = xs[static_cast<std::size_t>(0.95 * (xs.size() - 1))];
  s.min = xs.front();
  s.max = xs.back();
  return s;
}

/// Aligned stdout table + CSV file. Bare CSV filenames land under
/// resultsDir(), never the working directory's root.
class Table {
 public:
  Table(std::string title, std::string csvPath,
        std::vector<std::string> header)
      : title_(std::move(title)),
        csvPath_(resultsPath(std::move(csvPath))),
        header_(std::move(header)),
        csv_(csvPath_, header_) {}

  void row(std::vector<std::string> cells) {
    csv_.row(cells);
    rows_.push_back(std::move(cells));
  }

  /// Records how many simulation runs back one aggregated cell, under
  /// `runs.<cell>` in the CSV manifest. Every mean/percentile row should
  /// carry this — an aggregate whose sample count isn't recorded anywhere
  /// can't be judged for precision (docs/STATISTICS.md).
  void recordRuns(const std::string& cell, std::uint64_t runs) {
    meta_.set("runs." + cell, runs);
  }

  void print() const {
    // A bench's CSV is a run/bench output: give it a manifest so any row
    // can be traced back to the producing build.
    if (!csvPath_.empty()) {
      obs::Manifest m;
      obs::addBuildInfo(m);
      m.set("tool", "bench");
      m.set("title", title_);
      m.set("csv", csvPath_);
      m.set("rows", static_cast<std::uint64_t>(rows_.size()));
      m.merge(meta_);
      m.write(csvPath_ + ".manifest.json");
    }
    std::printf("\n== %s ==\n", title_.c_str());
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], cells[i].size());
      }
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);
    auto printRow = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), cells[i].c_str());
      }
      std::printf("\n");
    };
    printRow(header_);
    for (const auto& r : rows_) printRow(r);
  }

 private:
  std::string title_;
  std::string csvPath_;
  std::vector<std::string> header_;
  io::CsvWriter csv_;
  std::vector<std::vector<std::string>> rows_;
  obs::Manifest meta_;
};

/// Runs one table cell: seeds 0 .. seeds-1, where `makeRun(s)` builds seed
/// s's Run on a worker thread of the campaign pool (sim::campaignMap), so
/// it must build its own start and pattern. The results come back in seed
/// order, and seed s is telemetry run nextObsIndex + s, so the CSV and the
/// manifest names are the same for any APF_JOBS. The cell's run count goes
/// into `table`'s CSV manifest as `runs.<cell>` (Table::recordRuns). A run
/// that throws ends the bench.
template <typename MakeRun>
std::vector<sim::RunResult> runCell(Table& table, const std::string& cell,
                                    int seeds, MakeRun&& makeRun) {
  table.recordRuns(cell, static_cast<std::uint64_t>(seeds));
  std::vector<int> items(static_cast<std::size_t>(seeds));
  std::iota(items.begin(), items.end(), 0);
  const long base = nextObsIndex;
  nextObsIndex += seeds;
  return sim::campaignMap(items, [&](int s, std::size_t) {
    return runOnce(makeRun(s), base + s);
  });
}

/// Symmetric start with n robots (n even >= 4): two rings of n/2.
inline config::Configuration symmetricStart(std::size_t n,
                                            std::uint64_t seed) {
  config::Rng rng(seed);
  return config::symmetricConfiguration(static_cast<int>(n / 2), 2, rng);
}

}  // namespace apf::bench

#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

#include "config/regular.h"
#include "config/shifted.h"
#include "config/similarity.h"
#include "config/symmetry.h"
#include "config/view.h"
#include "core/analysis.h"
#include "core/phases.h"
#include "geom/sec.h"
#include "geom/weber.h"

namespace perfbench {
namespace {

using namespace apf;

template <typename F>
auto timed(const char* name, std::int64_t run, F&& f) {
  obs::ScopedSpan span(name, "bench", "run", run);
  return f();
}

bool isDpf(int tag) {
  return tag >= core::kDpfCoord && tag <= core::kDpfRotate;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of an ascending vector (0 when empty).
double percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t durNanos = 0;
  std::uint64_t selfNanos = 0;
  double usPerCall() const {
    return ratio(static_cast<double>(durNanos) / 1e3,
                 static_cast<double>(count));
  }
};

}  // namespace

ReplayCounts replaySamples(const std::vector<ComputeSample>& samples) {
  ReplayCounts out;
  const geom::Tol matchTol{1e-6, 1e-6};  // the formation's terminal test
  for (const ComputeSample& s : samples) {
    // Untimed: normalizes the snapshot, finds c(P) and warms the pattern
    // side (PatternInfo cache, F's circle), as in the run itself.
    core::Analysis a(s.snap);
    if (!a.ok()) continue;
    ++out.samples;
    const geom::Vec2 c = a.centerP();
    const config::Configuration& f = a.F();
    f.sec();
    const std::vector<geom::Vec2>& raw = a.P().points();
    auto cold = [&raw] { return config::Configuration(raw); };

    sim::Snapshot coldSnap = s.snap;
    coldSnap.robots = config::Configuration(s.snap.robots.points());
    const bool selected = timed("replay.analysis", s.run, [&] {
      core::Analysis b(coldSnap);
      return b.selectedRobot().has_value();
    });

    config::Configuration q = cold();
    out.axesFound += !timed("replay.symmetry_axes", s.run, [&] {
                        return config::symmetryAxes(q, c);
                      }).empty();
    q = cold();
    const int rho = timed("replay.symmetricity", s.run,
                          [&] { return config::symmetricity(q, c); });
    q = cold();
    const auto reg = timed("replay.regular_set", s.run,
                           [&] { return config::regularSetOf(q); });
    q = cold();
    const auto shifted = timed("replay.shifted_set", s.run,
                               [&] { return config::shiftedRegularSetOf(q); });
    q = cold();
    const std::size_t views = timed("replay.all_views", s.run, [&] {
      return config::allViews(q, c, a.multiplicity()).size();
    });
    q = cold();
    const std::size_t maxViews = timed("replay.max_view", s.run, [&] {
      return config::maxViewRobots(q, c, a.multiplicity()).size();
    });
    q = cold();
    out.similarFound += timed("replay.similar", s.run, [&] {
      return config::similar(q, f, matchTol);
    });
    q = cold();
    const double secRadius = timed("replay.sec", s.run, [&] {
      return geom::smallestEnclosingCircle(q.span()).radius;
    });
    const std::size_t holders = timed("replay.sec_holders", s.run, [&] {
      return geom::secHolders(q.span()).size();
    });
    const geom::Vec2 weber = timed("replay.weber", s.run,
                                   [&] { return geom::weberPoint(q.span()); });
    if (reg) {
      ++out.regularFound;
      std::vector<geom::Vec2> pts;
      for (std::size_t i : reg->indices) pts.push_back(raw[i]);
      std::vector<int> rays(pts.size());
      std::iota(rays.begin(), rays.end(), 0);
      ++out.gridFits;
      out.gridConverged += timed("replay.grid_fit", s.run, [&] {
        return geom::fitAngularGrid(pts, rays, reg->grid.numRays,
                                    reg->biangular, reg->grid)
            .has_value();
      });
    }
    if (shifted) ++out.shiftedFound;
    if (s.phaseTag == core::kRsbShifted) {
      ++out.shiftedTagged;
      if (!shifted) ++out.shiftedMissing;
    }
    if (isDpf(s.phaseTag)) {
      ++out.dpfTagged;
      if (!selected) ++out.selectedMissing;
    }
    out.checksum += static_cast<double>(rho + static_cast<int>(views) +
                                        static_cast<int>(maxViews) +
                                        static_cast<int>(holders)) +
                    secRadius + weber.x;
  }
  return out;
}

std::vector<Metric> layerMetrics(const std::vector<obs::Span>& spans,
                                 const PassResult& traced,
                                 const ReplayCounts& replay,
                                 std::uint64_t droppedSpans,
                                 double untracedRunsPerSecond,
                                 std::vector<std::string>& problems) {
  // Self time: group the benchmark's spans by run (one run stays on one
  // thread, so its spans nest), then subtract each span's direct children.
  std::map<std::int64_t, std::vector<const obs::Span*>> byRun;
  for (const obs::Span& s : spans) {
    if (std::strcmp(s.cat, "bench") == 0 && s.arg1Name != nullptr &&
        std::strcmp(s.arg1Name, "run") == 0) {
      byRun[s.arg1].push_back(&s);
    }
  }
  std::map<std::string, Totals> byName;
  std::vector<Totals> byPhase(kPhaseTags);
  std::vector<std::uint64_t> computeNanos;
  for (auto& [run, list] : byRun) {
    std::sort(list.begin(), list.end(), [](const obs::Span* a,
                                           const obs::Span* b) {
      return a->startNanos != b->startNanos ? a->startNanos < b->startNanos
                                            : a->durNanos > b->durNanos;
    });
    std::vector<std::uint64_t> childNanos(list.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::Span& s = *list[i];
      while (!open.empty() && list[open.back()]->startNanos +
                                      list[open.back()]->durNanos <=
                                  s.startNanos) {
        open.pop_back();
      }
      if (!open.empty()) childNanos[open.back()] += s.durNanos;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::Span& s = *list[i];
      Totals& t = byName[s.name];
      t.count += 1;
      t.durNanos += s.durNanos;
      t.selfNanos += s.durNanos - std::min(childNanos[i], s.durNanos);
      if (std::strcmp(s.name, "core.compute") == 0) {
        computeNanos.push_back(s.durNanos);
        if (s.arg2 >= 0 && s.arg2 < kPhaseTags) {
          Totals& p = byPhase[static_cast<std::size_t>(s.arg2)];
          p.count += 1;
          p.durNanos += s.durNanos;
        }
      }
    }
  }
  std::sort(computeNanos.begin(), computeNanos.end());

  std::uint64_t events = 0, bits = 0, moves = 0, calls = 0;
  std::uint64_t secHits = 0, secAll = 0, weberHits = 0, weberAll = 0;
  double runSetupSeconds = 0.0;
  std::vector<std::uint64_t> phaseCalls(kPhaseTags, 0);
  for (const RunOutcome& r : traced.runs) {
    events += r.events;
    bits += r.randomBits;
    secHits += r.secHits;
    secAll += r.secHits + r.secMisses;
    weberHits += r.weberHits;
    weberAll += r.weberHits + r.weberMisses;
    runSetupSeconds += r.setupSeconds;
    if (!r.log) continue;
    calls += r.log->calls;
    moves += r.log->moves;
    for (int t = 0; t < kPhaseTags; ++t) {
      phaseCalls[static_cast<std::size_t>(t)] +=
          r.log->phaseCalls[static_cast<std::size_t>(t)];
    }
  }
  const double runs = static_cast<double>(traced.runs.size());
  if (byName["core.compute"].count != calls) {
    problems.push_back("core.compute spans do not match the wrapper's calls");
  }
  for (int t = 0; t < kPhaseTags; ++t) {
    if (byPhase[static_cast<std::size_t>(t)].count !=
        phaseCalls[static_cast<std::size_t>(t)]) {
      problems.push_back(std::string("phase ") + core::phaseName(t) +
                         ": span count differs from the wrapper's count");
    }
  }

  std::uint64_t goals = 0;
  for (const RunOutcome& r : traced.runs) goals += r.goal;
  const double tracedRunsPerSecond =
      ratio(static_cast<double>(goals), traced.wallSeconds);

  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const sim::CampaignStats& cs = traced.stats;
  add("campaign.utilization", cs.utilization(), "ratio");
  add("campaign.idle_s", static_cast<double>(cs.workerIdleNanos) / 1e9, "s");
  add("campaign.merge_s", static_cast<double>(cs.mergeNanos) / 1e9, "s");
  add("campaign.run_setup_ms", 1e3 * ratio(runSetupSeconds, runs), "ms");
  add("engine.self_us_per_event",
      ratio(static_cast<double>(byName["engine.run"].selfNanos) / 1e3,
            static_cast<double>(events)),
      "us");
  add("engine.sec_cache_hit_ratio",
      ratio(static_cast<double>(secHits), static_cast<double>(secAll)),
      "ratio");
  add("engine.weber_cache_hit_ratio",
      ratio(static_cast<double>(weberHits), static_cast<double>(weberAll)),
      "ratio");
  add("core.compute_us_p50", percentile(computeNanos, 0.50) / 1e3, "us");
  add("core.compute_us_p99", percentile(computeNanos, 0.99) / 1e3, "us");
  add("core.move_ratio",
      ratio(static_cast<double>(moves), static_cast<double>(calls)), "ratio");
  add("core.random_bits_per_run", ratio(static_cast<double>(bits), runs),
      "count");
  add("core.analysis.us_per_call", byName["replay.analysis"].usPerCall(),
      "us");
  for (int t = 0; t < kPhaseTags; ++t) {
    const std::string base = std::string("core.phase.") + core::phaseName(t);
    const Totals& p = byPhase[static_cast<std::size_t>(t)];
    add(base + ".calls", static_cast<double>(p.count), "count");
    add(base + ".us_per_call", p.usPerCall(), "us");
  }
  const double samples = static_cast<double>(replay.samples);
  add("core.replay_samples", samples, "count");
  for (const char* name :
       {"symmetry_axes", "symmetricity", "regular_set", "shifted_set",
        "all_views", "max_view", "similar"}) {
    add(std::string("config.") + name + ".us_per_call",
        byName[std::string("replay.") + name].usPerCall(), "us");
  }
  add("config.symmetry_axes.found_ratio",
      ratio(static_cast<double>(replay.axesFound), samples), "ratio");
  add("config.regular_set.found_ratio",
      ratio(static_cast<double>(replay.regularFound), samples), "ratio");
  add("config.shifted_set.found_ratio",
      ratio(static_cast<double>(replay.shiftedFound), samples), "ratio");
  add("config.similar.found_ratio",
      ratio(static_cast<double>(replay.similarFound), samples), "ratio");
  add("config.replay_samples", samples, "count");
  add("geom.sec.us_per_call", byName["replay.sec"].usPerCall(), "us");
  add("geom.sec_holders.us_per_call", byName["replay.sec_holders"].usPerCall(),
      "us");
  add("geom.weber.us_per_call", byName["replay.weber"].usPerCall(), "us");
  add("geom.grid_fit.us_per_call", byName["replay.grid_fit"].usPerCall(), "us");
  add("geom.grid_fit.converged_ratio",
      ratio(static_cast<double>(replay.gridConverged),
            static_cast<double>(replay.gridFits)),
      "ratio");
  add("geom.replay_samples", samples, "count");
  add("geom.grid_fit.samples", static_cast<double>(replay.gridFits), "count");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  add("trace.dropped_spans", static_cast<double>(droppedSpans), "count");
  add("trace.slowdown", ratio(untracedRunsPerSecond, tracedRunsPerSecond),
      "ratio");
  return m;
}

}  // namespace perfbench

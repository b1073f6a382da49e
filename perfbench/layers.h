#pragma once

/// \file layers.h
/// Per-layer costs of the traced run, measured from outside the simulator:
/// benchmark spans around each call into a layer, and a replay of the
/// config and geom predicates on snapshots the traced run captured.

#include <string>
#include <vector>

#include "obs/span.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome counts of the replay; the timings live in its spans.
struct ReplayCounts {
  std::uint64_t samples = 0;
  std::uint64_t axesFound = 0;
  std::uint64_t regularFound = 0;
  std::uint64_t shiftedFound = 0;
  std::uint64_t similarFound = 0;
  std::uint64_t gridFits = 0;
  std::uint64_t gridConverged = 0;
  /// Snapshots tagged rsb-shifted, and those among them without a shifted
  /// regular set.
  std::uint64_t shiftedTagged = 0;
  std::uint64_t shiftedMissing = 0;
  /// Snapshots tagged dpf-*, and those among them without a selected robot.
  std::uint64_t dpfTagged = 0;
  std::uint64_t selectedMissing = 0;
  /// Sum over the replayed results, printed so no call is optimized away.
  double checksum = 0.0;
};

/// Replays every sample's predicates under "replay.*" spans (which need an
/// installed collector). Each robot configuration is rebuilt from raw
/// points so its sec()/weberPoint() caches start cold, as after a Look;
/// the pattern stays warm.
ReplayCounts replaySamples(const std::vector<ComputeSample>& samples);

/// Per-layer metrics, in BENCHMARK.json order, from the recorded spans,
/// the traced pass and the replay. `problems` collects inconsistencies
/// between the spans and the wrapper's own counts.
std::vector<Metric> layerMetrics(const std::vector<apf::obs::Span>& spans,
                                 const PassResult& traced,
                                 const ReplayCounts& replay,
                                 std::uint64_t droppedSpans,
                                 double untracedRunsPerSecond,
                                 std::vector<std::string>& problems);

}  // namespace perfbench

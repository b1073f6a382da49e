#pragma once

/// \file event.h
/// Typed telemetry events emitted by the simulation engine. One Event is a
/// fixed-size POD so the hot path never allocates; sinks decide how (and
/// whether) to serialize it.
///
/// Event stream contract (enforced by tests/obs_test.cpp and
/// tests/fault_test.cpp):
///  * a run emits exactly one RunStart (index 0) and one RunEnd (last);
///  * indexes are dense and strictly increasing;
///  * one Compute event is emitted per algorithm activation (a reused
///    stay, Metrics::computesReused, included), so the
///    per-phase Compute counts of a log equal `Metrics::phaseActivations`;
///  * every ElectionRound is paired with the Compute of the same
///    activation (same robot, same scheduler event);
///  * one FaultInjected event is emitted per injected fault, so a log's
///    FaultInjected count equals `Metrics::faultsInjected`, and its
///    RobotCrashed count equals `Metrics::crashed`.

#include <cstdint>

namespace apf::obs {

enum class EventKind : std::uint8_t {
  RunStart,         ///< engine starts executing (robot = -1)
  Look,             ///< robot captured a snapshot
  Compute,          ///< robot ran the algorithm on its stored snapshot
  MoveStep,         ///< robot advanced along its path (possibly partially)
  CycleComplete,    ///< robot finished a Look-Compute-Move cycle
  PhaseTransition,  ///< robot's computed phase tag changed
  ElectionRound,    ///< a Compute flipped the election's random bit
  FaultInjected,    ///< a sensor/compute fault fired (see Event::faultKind)
  RobotCrashed,     ///< a crash-stop fault permanently halted a robot
  RunEnd,           ///< engine finished (robot = -1)
  // Campaign-supervisor events (sim/supervisor.h). They concern campaign
  // ITEMS, not robots: `robot` carries the item index, and they are emitted
  // on the merge thread, in merge order, so a supervised campaign's event
  // log is deterministic.
  RunTimeout,      ///< a supervised attempt hit its watchdog deadline
  RunRetried,      ///< a failed item is being retried (possibly reseeded)
  RunQuarantined,  ///< an item exhausted its retry budget
  Checkpoint,      ///< an item's result was journaled (fsync'd)
  // Adaptive-estimation events (est/adaptive.h). Like supervisor events
  // they concern campaign structure, not robots: `robot` carries the batch
  // index, and they are emitted on the driver thread with wallNanos = 0 so
  // adaptive reports stay byte-deterministic.
  BatchScheduled,     ///< an adaptive driver committed to a sample batch
  EstimateConverged,  ///< a stopping rule fired before the max budget
};

/// Stable wire name (used as the "ev" field of JSONL lines).
const char* eventKindName(EventKind kind);

/// Which injector produced a FaultInjected/RobotCrashed event. Kept here —
/// not in src/fault — because it is telemetry vocabulary: sinks and
/// apf_report must name fault kinds without depending on the fault library.
enum class FaultKind : std::uint8_t {
  None,
  Crash,             ///< crash-stop: robot halted forever
  SensorNoise,       ///< snapshot positions perturbed by Gaussian noise
  SensorOmission,    ///< >= 1 robot omitted from a snapshot
  MultiplicityFlip,  ///< multiplicity under/over-count in a snapshot
  ComputeDrop,       ///< computed path discarded before moving
  ComputeTruncate,   ///< computed path truncated below its full length
};

/// Stable wire name (the "fault" field of JSONL lines).
const char* faultKindName(FaultKind kind);

struct Event {
  EventKind kind = EventKind::RunStart;
  /// Dense per-run log index, starting at 0.
  std::uint64_t index = 0;
  /// Nanoseconds since RunStart (steady clock).
  std::uint64_t wallNanos = 0;
  /// Robot the event concerns; -1 for run-level events. Supervisor events
  /// repurpose it as the campaign item index.
  std::int64_t robot = -1;
  /// Phase tag (core/phases.h) of the activation; Compute, CycleComplete,
  /// PhaseTransition, ElectionRound. Supervisor events repurpose it as the
  /// attempt number.
  int phaseTag = 0;
  /// PhaseTransition only: the tag being left.
  int phaseFrom = 0;
  /// Scheduler events processed so far (Metrics::events at emission).
  std::uint64_t schedEvent = 0;
  /// Configuration version at emission (bumped on every position change).
  std::uint64_t configVersion = 0;
  /// Compute/ElectionRound: algorithm random bits consumed by this
  /// activation.
  std::uint64_t bitsUsed = 0;
  /// Compute: snapshot staleness in configuration versions
  /// (configVersion at compute minus version captured at Look).
  std::uint64_t staleness = 0;
  /// Compute: wall time of the algorithm call (0 unless timing enabled).
  std::uint64_t durNanos = 0;
  /// MoveStep: distance advanced by this step; RunEnd: total distance;
  /// FaultInjected: fault magnitude (omitted-robot count for
  /// SensorOmission, truncation fraction for ComputeTruncate, sigma for
  /// SensorNoise).
  double distance = 0.0;
  /// MoveStep: path completed; RunEnd: run succeeded. Supervisor events:
  /// RunTimeout — deadline was wall-clock (vs cycle budget); RunQuarantined
  /// — failure proved deterministic by a same-seed retry.
  bool flag = false;
  /// FaultInjected / RobotCrashed: which injector fired.
  FaultKind faultKind = FaultKind::None;
};

}  // namespace apf::obs

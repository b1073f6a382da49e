#pragma once

/// \file algorithm.h
/// The robot-algorithm interface: a pure function from a local snapshot to a
/// movement path, exactly the Compute step of the Look-Compute-Move model.

#include <optional>
#include <string>

#include "config/configuration.h"
#include "geom/path.h"
#include "sched/rng.h"

namespace apf::sim {

/// What a robot observes during Look, in its own local coordinate system
/// (unknown rotation, scale, and possibly reflection relative to the global
/// frame; origin at the robot's own position at Look time).
struct Snapshot {
  /// Positions of all robots (multiplicity points appear repeated).
  config::Configuration robots;
  /// Index of the observing robot's own position in `robots`.
  std::size_t selfIndex = 0;
  /// The target pattern, as this robot received it: an arbitrary similarity
  /// image of the true pattern, in the robot's coordinate system.
  config::Configuration pattern;
  /// Whether this robot can count robots at a multiplicity point. Without
  /// it, a multiplicity point is indistinguishable from a single robot.
  bool multiplicityDetection = false;
};

/// The Compute result: a path to follow (empty path = stay still), plus
/// bookkeeping for the metrics layer.
struct Action {
  geom::Path path;
  /// Which algorithm phase produced this decision (see core/phases.h); used
  /// by metrics only, not by the model.
  int phaseTag = 0;
  /// True when this Compute flipped the election's random bit (set by
  /// psi_RSB); the engine turns it into an election_round telemetry event.
  /// Observability only, not part of the model.
  bool electionRound = false;

  bool isMove() const { return !path.empty(); }

  static Action stay(int tag = 0) { return Action{geom::Path{}, tag}; }
};

/// A mobile-robot algorithm. Implementations must be deterministic given
/// the snapshot and the bits drawn from `rng`, oblivious (no state between
/// calls), and anonymous (no use of robot indices beyond selfIndex).
///
/// The engine relies on this: when a robot's previous Compute stayed
/// without drawing a bit and its next Look captures the same configuration
/// version (an equal snapshot), the engine takes that stay again without
/// calling compute() (Metrics::computesReused). A test algorithm with
/// `mutable` state therefore sees fewer calls than there are Compute
/// activations.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual Action compute(const Snapshot& snap, sched::RandomSource& rng) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace apf::sim

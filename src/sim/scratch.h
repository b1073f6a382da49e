#pragma once

/// \file scratch.h
/// Reusable per-Engine scratch buffers for the look/compute/move hot path.
///
/// The engine's scheduler loop used to heap-allocate a dozen-plus transient
/// vectors per event (snapshot point lists, fault-filtered copies, live-robot
/// scans, eligible/mover index sets). Every one of those allocations is
/// replaced by a buffer here with clear-and-reuse semantics: the buffer is
/// cleared (capacity retained) at the top of each use, so after the first few
/// events the hot path performs zero allocations — the property
/// tests/scratch_test.cpp's allocation gate checks exactly.
///
/// Thread confinement: a Scratch belongs to exactly one Engine, and an
/// Engine runs on exactly one campaign worker (docs/PERFORMANCE.md). Reuse
/// therefore never races, and because clearing a vector and refilling it
/// with the same values is observationally identical to constructing a fresh
/// one, runs are bit-identical to the fresh-allocation engine by
/// construction (proven against golden traces in tests/scratch_test.cpp).

#include <cstddef>
#include <vector>

#include "geom/vec2.h"

namespace apf::sim {

struct Scratch {
  /// Spare point storage ping-ponged with a Snapshot's Configuration by the
  /// fault-injection look path (applyLookFaults): the filtered copy is built
  /// here, swapped in via Configuration::assign, and the displaced storage
  /// lands back here for the next call.
  std::vector<geom::Vec2> points;
  /// Live (non-crashed) robot positions for the safety monitor's SEC once a
  /// robot has crashed, and for n-f success matching.
  std::vector<geom::Vec2> live;
  /// Pattern-minus-f-subset buffer used by Engine::liveSuccess.
  std::vector<geom::Vec2> reduced;
  /// Robots whose Compute produced a movement (FSYNC/SSYNC rounds).
  std::vector<std::size_t> movers;
  /// Robots activated this SSYNC round.
  std::vector<std::size_t> active;
  /// Live robot indices (SSYNC activation draw).
  std::vector<std::size_t> liveIdx;
  /// Live robot indices eligible for the next ASYNC event.
  std::vector<std::size_t> eligible;
  /// Current f-combination of pattern indices dropped by liveSuccess.
  std::vector<std::size_t> drop;

  /// Pre-sizes every buffer for an n-robot run so even the first events
  /// allocate nothing (liveSuccess buffers included).
  void reserveFor(std::size_t n);
};

}  // namespace apf::sim

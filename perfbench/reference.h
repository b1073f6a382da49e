#pragma once

/// \file reference.h
/// A fixed piece of work, independent of the simulator, whose time tracks
/// the speed the host gives the calling thread at that moment.
///
/// On a shared host that speed drifts by up to 1.5x within minutes, so wall
/// seconds of a run say as much about the neighbours as about the code.
/// Dividing a run's time by the kernel's time measured on the same thread
/// during that run cancels most of the drift: the benchmark's timed metrics
/// are in units of this kernel ("ref").

namespace perfbench {

/// Wall seconds of one call of the reference kernel: many small vector
/// allocations, square roots and nth_element selections, the mix of
/// allocation, branching and floating point a Compute does. About 5 ms on
/// one vCPU of a shared Xeon virtual machine. Among the kernels tried (pure
/// floating point, pointer chasing over 4 MB, this one) this one tracked
/// the simulator's speed best: the spread of run time divided by kernel
/// time was less than half the spread of run time alone.
double referenceSeconds();

/// The kernel's time on the machine the benchmark was tuned on. setup_s is
/// reported in seconds: the set-up's time in refs times this, that is
/// seconds on a host running at that speed.
inline constexpr double kNominalReferenceSeconds = 0.005;

}  // namespace perfbench

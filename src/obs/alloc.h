#pragma once

/// \file alloc.h
/// Allocation accounting for benchmarks and tests.
///
/// `allocStats()` reports the process-wide count (and byte volume) of
/// `operator new` calls — but only in executables that opt in by linking
/// `src/obs/alloc_hook.cpp`, which replaces the global allocation functions
/// with counting wrappers. Everywhere else the weak definitions in alloc.cpp
/// apply: `allocCountingActive()` is false, the stats stay zero, and no
/// allocation function is replaced, so release builds pay literally nothing.
///
/// The hook itself is two relaxed atomic increments per `operator new` —
/// inert by design under sanitizers too (ASan intercepts malloc below the
/// operator-new layer, so the counting wrapper composes with it; the CI
/// ASan lane runs scratch_test, which links the hook, to prove it).
///
/// Measurement protocol (see tests/scratch_test.cpp's engine hot loop):
/// snapshot `allocStats()`, run the region of interest, subtract. Counters are
/// monotonically increasing and never reset.

#include <cstdint>

namespace apf::obs {

struct AllocStats {
  /// Number of operator-new calls since process start.
  std::uint64_t news = 0;
  /// Bytes requested by those calls.
  std::uint64_t bytes = 0;
};

/// True when this executable linked the counting hook (alloc_hook.cpp).
bool allocCountingActive();

/// Current counters; all-zero when counting is inactive.
AllocStats allocStats();

}  // namespace apf::obs

#pragma once

/// \file apf.h
/// Umbrella header for the APF simulator's public surface. Including this
/// single header gives a consumer the whole stack a tool binary needs:
/// configurations and pattern generators, the event-driven engine, the
/// campaign/supervisor execution layers, fault injection, adaptive
/// estimation, and the observability + environment plumbing.
///
/// The grouping below mirrors the library layering (src/*/CMakeLists.txt):
/// each block corresponds to one static library, listed roughly
/// bottom-up. Tools that only need a slice should keep including the
/// specific headers — the umbrella is for consumers of the whole API
/// (tests of the public surface, downstream experiments) and doubles as
/// the authoritative index of what is public. docs/API.md documents the
/// wire schemas these components speak.

// geometry kernel (apf_geom)
#include "geom/angle.h"
#include "geom/circle.h"
#include "geom/path.h"
#include "geom/sec.h"
#include "geom/tolerance.h"
#include "geom/transform.h"
#include "geom/vec2.h"
#include "geom/weber.h"

// configurations, symmetry analysis, generators (apf_config)
#include "config/canonical.h"
#include "config/classify.h"
#include "config/configuration.h"
#include "config/generator.h"
#include "config/rays.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "config/similarity.h"
#include "config/symmetry.h"
#include "config/view.h"

// schedulers and seeded randomness (apf_sched)
#include "sched/rng.h"
#include "sched/scheduler.h"
#include "sched/seed.h"

// fault injection plans (apf_fault)
#include "fault/fault.h"

// the paper's algorithm and baselines (apf_core, apf_baseline)
#include "baseline/det_election.h"
#include "baseline/det_formation.h"
#include "baseline/yy.h"
#include "core/analysis.h"
#include "core/combination.h"
#include "core/dpf.h"
#include "core/form_pattern.h"
#include "core/moves.h"
#include "core/multiplicity.h"
#include "core/pattern_info.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "core/scattering.h"

// simulation engine and execution layers (apf_sim)
#include "sim/algorithm.h"
#include "sim/campaign.h"
#include "sim/campaign_spec.h"
#include "sim/engine.h"
#include "sim/fuzzer.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/shrink.h"
#include "sim/supervisor.h"
#include "sim/trace.h"

// adaptive Monte Carlo estimation (apf_est)
#include "est/adaptive.h"
#include "est/estimators.h"
#include "est/stopping.h"

// observability: JSON, manifests, recorders, spans, allocation stats
// (apf_obs)
#include "obs/alloc.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "obs/stats.h"

// file I/O: pattern files, CSV, SVG/animation export (apf_io)
#include "io/animation.h"
#include "io/csv.h"
#include "io/patterns.h"
#include "io/serialize.h"
#include "io/svg.h"

// consolidated APF_* environment surface (apf_cli)
#include "cli/env.h"

#pragma once

/// \file env.h
/// The ONE place the `APF_*` environment variables are read, parsed, and
/// validated (docs/API.md has the full table). Before this header every
/// binary re-implemented its own getenv + ad-hoc parse, and the failure
/// mode was always the same: a typo'd APF_JOBS=l6 or APF_OBS_EVENTS=ture
/// silently ran a *different experiment*. Every accessor here warns loudly
/// on stderr when a value is garbage, exactly once per process, and then
/// applies the documented fallback — never a silent zero.
///
/// Variables:
///   APF_JOBS         campaign pool width (integer >= 1, clamped to 512)
///   APF_RESULTS_DIR  bench CSV/manifest output directory (default
///                    "results")
///   APF_OBS_DIR      per-run telemetry directory (unset = telemetry off)
///   APF_OBS_EVENTS   also write per-run JSONL event logs (boolean)
///   APF_OBS_TRACE    capture a Chrome trace of the whole bench (boolean)
///
/// `env()` snapshots all of them once, on first use. One deliberate
/// exception to the snapshot: sim::campaignJobs re-reads APF_JOBS through
/// jobsFromEnv() on every call, because tests vary the variable between
/// campaigns within one process — that contract predates this struct and
/// is part of campaign.h's documented behavior.

#include <string>

namespace apf::cli {

struct Env {
  /// Parsed APF_JOBS; 0 when unset or unparsable (callers fall back to
  /// hardware concurrency, see sim::campaignJobs).
  int jobs = 0;
  /// APF_RESULTS_DIR, defaulting to "results". Never empty.
  std::string resultsDir = "results";
  /// APF_OBS_DIR; empty = telemetry off.
  std::string obsDir;
  /// APF_OBS_EVENTS (boolean; "0"/"false"/"off"/"no" and unset are off).
  bool obsEvents = false;
  /// APF_OBS_TRACE (same boolean spelling rules).
  bool obsTrace = false;
};

/// The process-wide snapshot, parsed and validated (loudly) exactly once.
const Env& env();

/// Parses an APF_JOBS-style value: integer >= 1, clamped to 512. Returns 0
/// (without warning) when `value` is null/empty/unparsable — callers that
/// want the loud warning use jobsFromEnv().
int parseJobsValue(const char* value);

/// Re-reads APF_JOBS from the environment: parseJobsValue plus the loud
/// stderr warning on garbage. Returns 0 when unset or invalid. This is the
/// re-reading path sim::campaignJobs is built on; everything else should
/// use env().jobs.
int jobsFromEnv();

/// Boolean env spelling: unset, "", "0", "false", "off", "no" are false;
/// "1", "true", "on", "yes" are true. Anything else warns on stderr and —
/// matching the historical v[0] != '0' rule — counts as true.
bool parseBoolValue(const char* name, const char* value);

}  // namespace apf::cli

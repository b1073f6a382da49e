#pragma once

/// \file scenario.h
/// One description of what to simulate (docs/API.md): algorithm, pattern,
/// start recipe, scheduler, seeds, event cap and fault plan. A campaign
/// spec (sim/campaign_spec.h) and a failure repro (sim/shrink.h) are a
/// Scenario plus a few fields of their own; the fuzzer, apf_sim and
/// apf_estimate run one too, each through startFor and engineOptions. The JSON decoder
/// is strict: a missing, unknown or ill-typed key is an error.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "config/configuration.h"
#include "fault/fault.h"
#include "obs/json.h"
#include "sched/scheduler.h"
#include "sim/engine.h"

namespace apf::sim {

struct Scenario {
  std::string algo = "form";  ///< algorithm name (apf_sim --algo spelling)
  /// Human label for the pattern ("star", a file path, ...). The points
  /// below are authoritative; the label is bookkeeping for reports.
  std::string patternLabel = "star";
  config::Configuration pattern{};  ///< target points; n is pattern.size()
  /// "random" | "symmetric": regenerated per run from the run's seed.
  /// "points": the fixed `start` below is used for every run.
  std::string startKind = "random";
  config::Configuration start{};  ///< only for startKind "points"
  sched::SchedulerKind sched = sched::SchedulerKind::Async;
  std::uint64_t baseSeed = 1;  ///< run i of a campaign has seed baseSeed + i
  std::uint64_t runs = 1;
  std::uint64_t maxEvents = 1000000;
  double delta = 0.05;
  bool multiplicity = false;
  bool commonChirality = false;
  /// f crash victims drawn per run within `crashHorizon` events; with
  /// crashF 0 the plan's own `crashes` list is used as it stands.
  int crashF = 0;
  std::uint64_t crashHorizon = 2000;
  /// Sensor/compute knobs, explicit crashes and fault seed. `fault.seed`
  /// counts only when `faultSeedSet`; else a run's seed is its fault seed.
  fault::FaultPlan fault{};
  bool faultSeedSet = false;

  std::size_t n() const { return pattern.size(); }
};

/// Empty when the scenario is executable, else the reason: an empty
/// pattern, no runs, a bad start kind, a start whose size differs from the
/// pattern's, crashF >= n, a crash victim >= n, or an invalid fault plan.
std::string validate(const Scenario& sc);

/// The start of the run seeded `seed`: the fixed points, or a generated
/// start drawn from config::Rng(seed + 7) — "random" scatters n robots,
/// "symmetric" places two rings of n/2 (rho = n/2). Throws
/// std::invalid_argument on a start kind validate() rejects.
config::Configuration startFor(const Scenario& sc, std::uint64_t seed);

/// Engine options of the run seeded `seed`, without a watchdog: the
/// scenario's fault plan with its fault seed, and with crashF > 0 its
/// crashes drawn by fault::planWithRandomCrashes from that fault seed.
EngineOptions engineOptions(const Scenario& sc, std::uint64_t seed);

/// Appends the scenario's fields to `w` in wire order (docs/API.md).
void writeScenario(obs::JsonObjectWriter& w, const Scenario& sc);

/// Decodes `text`, an object whose `schemaKey` is `schema`, with the
/// scenario's fields plus the wrapper's `extraKeys` (left in `doc`; read
/// them with obs::requireMember / requireU64). Throws
/// std::runtime_error on malformed JSON, another schema, a missing, unknown
/// or ill-typed key, n != pattern size, or a scenario validate() rejects.
Scenario scenarioFromJson(std::string_view text, const std::string& schemaKey,
                          const std::string& schema,
                          std::initializer_list<std::string_view> extraKeys,
                          obs::JsonNode& doc);

}  // namespace apf::sim

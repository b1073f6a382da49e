#include "sim/campaign_spec.h"

#include "obs/json.h"
#include "sim/engine.h"

namespace apf::sim {

// ----------------------------------------------------------------- wire --

std::string toJson(const CampaignSpec& spec) {
  obs::JsonObjectWriter w;
  w.field("shard", CampaignSpec::kSchema);
  writeScenario(w, spec);
  w.field("watchdog_events", spec.watchdogEvents);
  w.field("watchdog_ms", spec.watchdogMs);
  w.field("retries", spec.retries);
  return w.str();
}

std::string shardConfigKey(const CampaignSpec& spec) { return toJson(spec); }

// ------------------------------------------------------------ execution --

SupervisorOptions shardSupervisorOptions(const CampaignSpec& spec,
                                         obs::Recorder* recorder) {
  SupervisorOptions opts;
  opts.cycleBudget = spec.watchdogEvents;
  opts.wallBudgetNanos = spec.watchdogMs * 1'000'000ull;
  opts.maxRetries = spec.retries;
  opts.recorder = recorder;
  return opts;
}

std::string runScenarioPayload(const CampaignSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att) {
  // Retry salts XOR into the effective seed (0 for attempts 0/1 — the
  // same-seed determinism proof); crash victims/timings are re-drawn
  // per run so the campaign explores many crash schedules. The payload is
  // a flat JSON line with only deterministic fields, so campaign outputs
  // diff bit-identical across processes and machines.
  const std::uint64_t eff = (spec.baseSeed + runIndex) ^ att.seedSalt;
  EngineOptions eopts = engineOptions(spec, eff);
  eopts.watchdog = att.watchdog;
  Engine eng(startFor(spec, eff), spec.pattern, algo, eopts);
  const RunResult res = eng.run();
  obs::JsonObjectWriter w;
  w.field("seed", eff);
  w.field("outcome", outcomeName(res.outcome));
  w.field("success", res.success);
  w.field("terminated", res.terminated);
  w.field("cycles", res.metrics.cycles);
  w.field("events", res.metrics.events);
  w.field("bits", res.metrics.randomBits);
  w.field("distance", res.metrics.distance);
  return w.str();
}

}  // namespace apf::sim

#include "sim/shard.h"

#include <filesystem>
#include <map>
#include <stdexcept>

#include "config/generator.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "sim/shrink.h"

namespace fs = std::filesystem;

namespace apf::sim {

// ----------------------------------------------------------------- wire --

std::string toJson(const ShardSpec& spec) {
  obs::JsonObjectWriter w;
  w.field("shard", ShardSpec::kSchema);
  w.field("algo", spec.algo);
  w.field("n", static_cast<std::uint64_t>(spec.n));
  w.field("pattern_label", spec.patternLabel);
  w.rawField("pattern", pointsJson(spec.pattern));
  w.field("start_kind", spec.startKind);
  // The fixed start is only on the wire when it is authoritative, so two
  // behaviorally identical specs get the same shardConfigKey.
  if (spec.startKind == "points") {
    w.rawField("start", pointsJson(spec.start));
  }
  w.field("sched", sched::schedulerName(spec.sched));
  w.field("base_seed", spec.baseSeed);
  w.field("runs", spec.runs);
  w.field("max_events", spec.maxEvents);
  w.field("delta", spec.delta);
  w.field("multiplicity", spec.multiplicity);
  w.field("chirality", spec.commonChirality);
  w.field("crash_f", spec.crashF);
  w.field("crash_horizon", spec.crashHorizon);
  w.rawField("fault", fault::toJson(spec.fault));
  w.field("fault_seed_set", spec.faultSeedSet);
  w.field("watchdog_events", spec.watchdogEvents);
  w.field("watchdog_ms", spec.watchdogMs);
  w.field("retries", spec.retries);
  return w.str();
}

std::string shardConfigKey(const ShardSpec& spec) { return toJson(spec); }

std::string validateStartKind(const std::string& kind, std::size_t n) {
  if (kind != "random" && kind != "symmetric") {
    return "unknown start \"" + kind + "\" (want random or symmetric)";
  }
  if (kind == "symmetric" && (n < 4 || n % 2 != 0)) {
    return "symmetric start needs an even n >= 4, n is " + std::to_string(n);
  }
  return "";
}

config::Configuration generateStart(const std::string& kind, std::size_t n,
                                    std::uint64_t seed) {
  if (const std::string why = validateStartKind(kind, n); !why.empty()) {
    throw std::invalid_argument(why);
  }
  config::Rng rng(seed + 7);
  if (kind == "symmetric") {
    return config::symmetricConfiguration(static_cast<int>(n / 2), 2, rng);
  }
  return config::randomConfiguration(n, rng, 5.0, 0.1);
}

std::string validateShardSpec(const ShardSpec& spec) {
  if (spec.n == 0) return "n must be at least 1";
  if (spec.runs == 0) return "runs must be at least 1";
  if (spec.pattern.size() != spec.n) {
    return "pattern has " + std::to_string(spec.pattern.size()) +
           " points but n is " + std::to_string(spec.n);
  }
  if (spec.startKind != "points") {
    if (std::string why = validateStartKind(spec.startKind, spec.n);
        !why.empty()) {
      return why;
    }
  } else if (spec.start.size() != spec.n) {
    return "start has " + std::to_string(spec.start.size()) +
           " points but n is " + std::to_string(spec.n);
  }
  if (spec.crashF < 0) return "crash_f must be non-negative";
  if (spec.crashF > 0 &&
      static_cast<std::size_t>(spec.crashF) >= spec.n) {
    return "crash_f must leave at least one live robot";
  }
  if (spec.crashF > 0 && spec.crashHorizon == 0) {
    return "crash_horizon must be positive";
  }
  if (spec.retries < 0) return "retries must be non-negative";
  if (const auto why = fault::validate(spec.fault)) return *why;
  return "";
}

ShardRange shardRange(std::uint64_t runs, unsigned index, unsigned count) {
  if (count == 0 || index >= count) {
    throw std::runtime_error("shard: index " + std::to_string(index) +
                             " out of range for " + std::to_string(count) +
                             " shards");
  }
  // i*runs/count is monotone in i and hits 0 and runs at the ends, so the
  // slices are contiguous, cover [0, runs) exactly, and differ in size by
  // at most one.
  ShardRange r;
  r.lo = runs * index / count;
  r.hi = runs * (index + 1) / count;
  return r;
}

// ------------------------------------------------------------ execution --

SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder) {
  SupervisorOptions opts;
  opts.cycleBudget = spec.watchdogEvents;
  opts.wallBudgetNanos = spec.watchdogMs * 1'000'000ull;
  opts.maxRetries = spec.retries;
  opts.recorder = recorder;
  return opts;
}

EngineOptions scenarioOptions(const ShardSpec& spec, std::uint64_t seed) {
  EngineOptions eopts;
  eopts.seed = seed;
  eopts.maxEvents = spec.maxEvents;
  eopts.multiplicityDetection = spec.multiplicity;
  eopts.commonChirality = spec.commonChirality;
  eopts.sched.kind = spec.sched;
  eopts.sched.delta = spec.delta;
  const std::uint64_t fseed = spec.faultSeedSet ? spec.fault.seed : seed;
  eopts.fault = spec.fault;
  eopts.fault.crashes = fault::planWithRandomCrashes(spec.n, spec.crashF, fseed,
                                                     spec.crashHorizon)
                            .crashes;
  eopts.fault.seed = fseed;
  return eopts;
}

std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att) {
  // Field-by-field this is the campaign worker apf_sim always ran; it
  // lives here so every slice of a campaign executes the same code.
  // Retry salts XOR into the effective seed (0 for attempts 0/1 — the
  // same-seed determinism proof); crash victims/timings are re-drawn
  // per run so the campaign explores many crash schedules. The payload is
  // a flat JSON line with only deterministic fields, so campaign outputs
  // diff bit-identical across processes and machines.
  const std::uint64_t eff = (spec.baseSeed + runIndex) ^ att.seedSalt;
  EngineOptions eopts = scenarioOptions(spec, eff);
  eopts.watchdog = att.watchdog;
  Engine eng(spec.startKind == "points"
                 ? spec.start
                 : generateStart(spec.startKind, spec.n, eff),
             spec.pattern, algo, eopts);
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

SupervisorReport runShard(const ShardSpec& spec, const Algorithm& algo,
                          std::uint64_t lo, std::uint64_t hi,
                          CampaignJournal* journal, obs::Recorder* recorder,
                          int jobs, CampaignStats* stats,
                          std::vector<std::string>* payloads) {
  if (lo > hi || hi > spec.runs) {
    throw std::runtime_error("shard: range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + ") exceeds " +
                             std::to_string(spec.runs) + " runs");
  }
  if (payloads != nullptr && payloads->size() < spec.runs) {
    payloads->resize(spec.runs);
  }
  return superviseCampaign(
      lo, hi,
      [&](std::size_t index, const Attempt& att) {
        return runScenarioPayload(spec, algo, index, att);
      },
      [&](std::size_t index, std::string&& payload) {
        if (payloads != nullptr) (*payloads)[index] = std::move(payload);
      },
      shardSupervisorOptions(spec, recorder), journal, jobs, stats);
}

std::size_t mergeShardJournals(const ShardSpec& spec,
                               const std::vector<std::string>& shardJournals,
                               const std::string& mergedPath) {
  const std::string key = shardConfigKey(spec);
  std::map<std::uint64_t, std::string> entries;
  for (const std::string& path : shardJournals) {
    // A missing path is an error, not an empty shard: with user-supplied
    // paths, a typo would otherwise drop that shard's runs silently and
    // the resume after the merge would quietly re-execute them.
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      throw std::runtime_error("shard: journal to merge does not exist: " +
                               path);
    }
    // Opening with resume=true reuses the torn-tail recovery and the
    // config-key check: a shard journal of a DIFFERENT spec throws here
    // instead of contaminating the merge.
    CampaignJournal j(path, key, /*resume=*/true);
    for (std::uint64_t i = 0; i < spec.runs; ++i) {
      if (const std::string* p = j.payload(static_cast<std::size_t>(i))) {
        entries[i] = *p;
      }
    }
  }
  // A fresh journal + ascending-index appends is exactly what a
  // single-process APF_JOBS=1 campaign writes (its merge callbacks fire in
  // index order), so the merged file is byte-identical by construction.
  CampaignJournal merged(mergedPath, key, /*resume=*/false);
  for (const auto& [i, payload] : entries) {
    merged.append(static_cast<std::size_t>(i), payload);
  }
  return entries.size();
}

}  // namespace apf::sim

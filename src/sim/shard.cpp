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

std::string validateShardSpec(const ShardSpec& spec) {
  if (spec.n == 0) return "n must be at least 1";
  if (spec.runs == 0) return "runs must be at least 1";
  if (spec.pattern.size() != spec.n) {
    return "pattern has " + std::to_string(spec.pattern.size()) +
           " points but n is " + std::to_string(spec.n);
  }
  if (spec.startKind != "random" && spec.startKind != "symmetric" &&
      spec.startKind != "points") {
    return "unknown start_kind \"" + spec.startKind + "\"";
  }
  if (spec.startKind == "points" && spec.start.size() != spec.n) {
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

std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att) {
  // Field-by-field this is the campaign worker apf_sim always ran; it
  // lives here so every slice of a campaign executes the same code.
  // Retry salts XOR into the effective seed (0 for attempts 0/1 — the
  // same-seed determinism proof); crash victims/timings are re-drawn
  // per run so the campaign explores many crash schedules. The payload is
  // a flat JSON line with only deterministic fields, so campaign outputs
  // diff bit-identical across processes and machines.
  const std::uint64_t runSeed = spec.baseSeed + runIndex;
  const std::uint64_t eff = runSeed ^ att.seedSalt;

  EngineOptions eopts;
  eopts.seed = eff;
  eopts.maxEvents = spec.maxEvents;
  eopts.multiplicityDetection = spec.multiplicity;
  eopts.commonChirality = spec.commonChirality;
  eopts.sched.kind = spec.sched;
  eopts.sched.delta = spec.delta;
  eopts.watchdog = att.watchdog;

  const std::uint64_t fseed = spec.faultSeedSet ? spec.fault.seed : eff;
  fault::FaultPlan plan;
  if (spec.crashF > 0) {
    plan = fault::planWithRandomCrashes(spec.n, spec.crashF, fseed,
                                        spec.crashHorizon);
  }
  plan.noiseSigma = spec.fault.noiseSigma;
  plan.omitProb = spec.fault.omitProb;
  plan.multFlipProb = spec.fault.multFlipProb;
  plan.dropProb = spec.fault.dropProb;
  plan.truncProb = spec.fault.truncProb;
  plan.seed = fseed;
  eopts.fault = plan;

  config::Configuration runStart = spec.start;
  if (spec.startKind != "points") {
    config::Rng rng(eff + 7);
    if (spec.startKind == "symmetric") {
      const int rho = static_cast<int>(spec.n) / 2;
      runStart = config::symmetricConfiguration(rho > 1 ? rho : 2, 2, rng);
    } else {
      runStart = config::randomConfiguration(spec.n, rng, 5.0, 0.1);
    }
  }

  Engine eng(runStart, spec.pattern, algo, eopts);
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
  const SupervisorOptions opts = shardSupervisorOptions(spec, recorder);
  SupervisorReport report;
  report.items = hi - lo;
  detail::MergeSink sink(report, opts);

  // The journaled-superviseCampaign replay pattern, but over GLOBAL run
  // indices: merge callbacks fire in ascending global order, journaled
  // runs replay without re-execution, and journal appends happen before
  // delivery — exactly the single-process semantics, restricted to
  // [lo, hi). That restriction is the only difference, which is why a
  // merged set of shard journals is byte-identical to one process's.
  std::vector<std::uint64_t> todo;
  todo.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t i = lo; i < hi; ++i) {
    if (journal == nullptr || !journal->has(static_cast<std::size_t>(i))) {
      todo.push_back(i);
    }
  }

  auto deliver = [&](std::uint64_t index, std::string&& payload) {
    if (payloads != nullptr) {
      (*payloads)[static_cast<std::size_t>(index)] = std::move(payload);
    }
  };
  std::uint64_t cursor = lo;
  auto flushJournaled = [&](std::uint64_t limit) {
    for (; cursor < limit; ++cursor) {
      if (journal == nullptr) continue;
      if (const std::string* p =
              journal->payload(static_cast<std::size_t>(cursor))) {
        ++report.replayed;
        deliver(cursor, std::string(*p));
      }
    }
  };

  auto worker = [&](const std::uint64_t& index, std::size_t,
                    const Attempt& att) -> std::string {
    return runScenarioPayload(spec, algo, index, att);
  };
  runCampaign(
      todo,
      [&](const std::uint64_t& index, std::size_t) {
        return detail::runAttempts<std::uint64_t, decltype(worker),
                                   std::string>(index, index, worker, opts);
      },
      [&](std::size_t t, detail::Supervised<std::string>&& s) {
        const std::uint64_t index = todo[t];
        flushJournaled(index);
        cursor = index + 1;
        const auto si = static_cast<std::size_t>(index);
        if (s.ok) {
          sink.recordRetries(si, s.failures);
          if (journal != nullptr) {
            journal->append(si, s.result);
            sink.recordCheckpoint(si, s.result.size());
          }
          ++report.completed;
          deliver(index, std::move(s.result));
        } else {
          sink.recordQuarantine(si, s.deterministic, std::move(s.failures));
        }
      },
      jobs, stats);
  flushJournaled(hi);
  return report;
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

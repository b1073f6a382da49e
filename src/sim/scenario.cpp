#include "sim/scenario.h"

#include <climits>
#include <stdexcept>
#include <vector>

#include "config/generator.h"

namespace apf::sim {

namespace {

/// Empty when `kind` names a generated start for n robots: exactly
/// "random", or "symmetric" with an even n >= 4.
std::string validateStartKind(const std::string& kind, std::size_t n) {
  if (kind != "random" && kind != "symmetric") {
    return "unknown start \"" + kind + "\" (want random or symmetric)";
  }
  if (kind == "symmetric" && (n < 4 || n % 2 != 0)) {
    return "symmetric start needs an even n >= 4, n is " + std::to_string(n);
  }
  return "";
}

}  // namespace

std::string validate(const Scenario& sc) {
  const std::size_t n = sc.n();
  if (n == 0) return "pattern must have at least one point";
  if (sc.runs == 0) return "runs must be at least 1";
  if (sc.startKind != "points") {
    if (std::string why = validateStartKind(sc.startKind, n); !why.empty()) {
      return why;
    }
  } else if (sc.start.size() != n) {
    return "start has " + std::to_string(sc.start.size()) +
           " points but the pattern has " + std::to_string(n);
  }
  if (sc.crashF < 0) return "crash_f must be non-negative";
  if (sc.crashF > 0 && static_cast<std::size_t>(sc.crashF) >= n) {
    return "crash_f " + std::to_string(sc.crashF) +
           " must leave at least one live robot (n is " + std::to_string(n) +
           ")";
  }
  if (sc.crashF > 0 && sc.crashHorizon == 0) {
    return "crash_horizon must be positive";
  }
  for (const fault::CrashFault& c : sc.fault.crashes) {
    if (c.robot >= n) {
      return "crash victim " + std::to_string(c.robot) +
             " is not a robot (n is " + std::to_string(n) + ")";
    }
  }
  if (const auto why = fault::validate(sc.fault)) return *why;
  return "";
}

config::Configuration startFor(const Scenario& sc, std::uint64_t seed) {
  if (sc.startKind == "points") return sc.start;
  if (const std::string why = validateStartKind(sc.startKind, sc.n());
      !why.empty()) {
    throw std::invalid_argument(why);
  }
  config::Rng rng(seed + 7);
  if (sc.startKind == "symmetric") {
    return config::symmetricConfiguration(static_cast<int>(sc.n() / 2), 2,
                                          rng);
  }
  return config::randomConfiguration(sc.n(), rng, 5.0, 0.1);
}

EngineOptions engineOptions(const Scenario& sc, std::uint64_t seed) {
  EngineOptions eopts;
  eopts.seed = seed;
  eopts.maxEvents = sc.maxEvents;
  eopts.multiplicityDetection = sc.multiplicity;
  eopts.commonChirality = sc.commonChirality;
  eopts.sched.kind = sc.sched;
  eopts.sched.delta = sc.delta;
  eopts.fault = sc.fault;
  eopts.fault.seed = sc.faultSeedSet ? sc.fault.seed : seed;
  if (sc.crashF > 0) {
    eopts.fault.crashes = fault::planWithRandomCrashes(
                              sc.n(), sc.crashF, eopts.fault.seed,
                              sc.crashHorizon)
                              .crashes;
  }
  return eopts;
}

// ----------------------------------------------------------------- wire --

namespace {

/// Exact `[[x,y],...]` coordinates: shortest doubles that parse back
/// bit-identical (obs::jsonNumber), so embedded points never perturb a
/// replay.
std::string pointsJson(const config::Configuration& c) {
  std::string out = "[";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out += obs::jsonNumber(c[i].x);
    out += ',';
    out += obs::jsonNumber(c[i].y);
    out += ']';
  }
  out += ']';
  return out;
}

config::Configuration pointsFromJson(const obs::JsonNode& node,
                                     const std::string& what) {
  if (node.kind != obs::JsonNode::Kind::Array) {
    throw std::runtime_error(what + " is not an array");
  }
  std::vector<geom::Vec2> pts;
  pts.reserve(node.items.size());
  for (const obs::JsonNode& p : node.items) {
    if (p.kind != obs::JsonNode::Kind::Array || p.items.size() != 2 ||
        p.items[0].kind != obs::JsonNode::Kind::Number ||
        p.items[1].kind != obs::JsonNode::Kind::Number) {
      throw std::runtime_error(what + " entries must be [x,y] pairs");
    }
    pts.push_back({p.items[0].number, p.items[1].number});
  }
  return config::Configuration(std::move(pts));
}

}  // namespace

void writeScenario(obs::JsonObjectWriter& w, const Scenario& sc) {
  w.field("algo", sc.algo);
  w.field("n", static_cast<std::uint64_t>(sc.n()));
  w.field("pattern_label", sc.patternLabel);
  w.rawField("pattern", pointsJson(sc.pattern));
  w.field("start_kind", sc.startKind);
  // The fixed start is only on the wire when it is authoritative, so two
  // behaviorally identical scenarios encode to the same bytes.
  if (sc.startKind == "points") w.rawField("start", pointsJson(sc.start));
  w.field("sched", sched::schedulerName(sc.sched));
  w.field("base_seed", sc.baseSeed);
  w.field("runs", sc.runs);
  w.field("max_events", sc.maxEvents);
  w.field("delta", sc.delta);
  w.field("multiplicity", sc.multiplicity);
  w.field("chirality", sc.commonChirality);
  w.field("crash_f", sc.crashF);
  w.field("crash_horizon", sc.crashHorizon);
  w.rawField("fault", fault::toJson(sc.fault));
  w.field("fault_seed_set", sc.faultSeedSet);
}

Scenario scenarioFromJson(std::string_view text, const std::string& schemaKey,
                          const std::string& schema,
                          std::initializer_list<std::string_view> extraKeys,
                          obs::JsonNode& doc) {
  using Kind = obs::JsonNode::Kind;
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error(schemaKey + ": " + why);
  };
  auto parsed = obs::parseJson(text);
  if (!parsed || parsed->kind != Kind::Object) fail("malformed JSON");
  doc = std::move(*parsed);
  const obs::JsonNode* found = doc.find(schemaKey);
  if (found == nullptr || found->asString() != schema) {
    fail("not an " + schema + " document" +
         (found == nullptr ? ""
                           : " (found " + found->asString("?") +
                                 "; re-create it with this build)"));
  }
  std::vector<std::string_view> known = {
      schemaKey, "algo", "n", "pattern_label", "pattern", "start_kind",
      "start", "sched", "base_seed", "runs", "max_events", "delta",
      "multiplicity", "chirality", "crash_f", "crash_horizon", "fault",
      "fault_seed_set"};
  known.insert(known.end(), extraKeys);
  obs::rejectUnknownKeys(doc, known, schemaKey);
  const auto at = [&](const char* key, Kind kind) -> const obs::JsonNode& {
    return obs::requireMember(doc, key, kind, schemaKey);
  };
  const auto u64 = [&](const char* key) {
    return obs::requireU64(doc, key, schemaKey);
  };

  Scenario sc;
  sc.algo = at("algo", Kind::String).string;
  sc.patternLabel = at("pattern_label", Kind::String).string;
  sc.pattern =
      pointsFromJson(at("pattern", Kind::Array), schemaKey + ": pattern");
  if (u64("n") != sc.n()) fail("n differs from the pattern's size");
  sc.startKind = at("start_kind", Kind::String).string;
  if (sc.startKind == "points") {
    sc.start = pointsFromJson(at("start", Kind::Array), schemaKey + ": start");
  } else if (doc.find("start") != nullptr) {
    fail("\"start\" needs start_kind \"points\"");
  }
  const std::string schedName = at("sched", Kind::String).string;
  const auto kind = sched::schedulerFromName(schedName);
  if (!kind) fail("unknown scheduler \"" + schedName + "\"");
  sc.sched = *kind;
  sc.baseSeed = u64("base_seed");
  sc.runs = u64("runs");
  sc.maxEvents = u64("max_events");
  sc.delta = at("delta", Kind::Number).number;
  sc.multiplicity = at("multiplicity", Kind::Bool).boolean;
  sc.commonChirality = at("chirality", Kind::Bool).boolean;
  const std::uint64_t crashF = u64("crash_f");
  if (crashF > INT_MAX) fail("crash_f is out of range");
  sc.crashF = static_cast<int>(crashF);
  sc.crashHorizon = u64("crash_horizon");
  sc.fault = fault::planFromJson(at("fault", Kind::Object));
  sc.faultSeedSet = at("fault_seed_set", Kind::Bool).boolean;
  if (const std::string why = validate(sc); !why.empty()) fail(why);
  return sc;
}

}  // namespace apf::sim

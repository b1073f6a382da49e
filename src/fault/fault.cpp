#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/manifest.h"
#include "sched/seed.h"

namespace apf::fault {

namespace {

bool isProb(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

using sched::splitmix64;  // shared derivation path (sched/seed.h)

}  // namespace

std::optional<std::string> validate(const FaultPlan& plan) {
  std::ostringstream os;
  if (!std::isfinite(plan.noiseSigma) || plan.noiseSigma < 0.0) {
    os << "fault.noise_sigma must be finite and >= 0, got "
       << plan.noiseSigma;
    return os.str();
  }
  const std::pair<const char*, double> probs[] = {
      {"fault.omit_prob", plan.omitProb},
      {"fault.mult_flip_prob", plan.multFlipProb},
      {"fault.drop_prob", plan.dropProb},
      {"fault.trunc_prob", plan.truncProb},
  };
  for (const auto& [name, p] : probs) {
    if (!isProb(p)) {
      os << name << " must lie in [0, 1], got " << p;
      return os.str();
    }
  }
  return std::nullopt;
}

FaultPlan planWithRandomCrashes(std::size_t n, int f, std::uint64_t seed,
                                std::uint64_t horizon) {
  FaultPlan plan;
  plan.seed = seed;
  if (n == 0 || f <= 0) return plan;
  const std::size_t count = std::min<std::size_t>(static_cast<std::size_t>(f), n);
  std::mt19937_64 rng(splitmix64(seed));
  // Distinct victims via a partial Fisher-Yates over robot indices.
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = k + rng() % (n - k);
    std::swap(ids[k], ids[j]);
    CrashFault c;
    c.robot = ids[k];
    c.atEvent = horizon > 0 ? rng() % horizon : 0;
    plan.crashes.push_back(c);
  }
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              return a.atEvent < b.atEvent;
            });
  return plan;
}

void appendManifest(const FaultPlan& plan, obs::Manifest& m) {
  m.set("fault.active", plan.active());
  m.set("fault.crash_count", static_cast<std::uint64_t>(plan.crashes.size()));
  for (std::size_t k = 0; k < plan.crashes.size(); ++k) {
    const std::string prefix = "fault.crash." + std::to_string(k);
    m.set(prefix + ".robot",
          static_cast<std::uint64_t>(plan.crashes[k].robot));
    m.set(prefix + ".at_event", plan.crashes[k].atEvent);
  }
  m.set("fault.noise_sigma", plan.noiseSigma);
  m.set("fault.omit_prob", plan.omitProb);
  m.set("fault.mult_flip_prob", plan.multFlipProb);
  m.set("fault.drop_prob", plan.dropProb);
  m.set("fault.trunc_prob", plan.truncProb);
  m.set("fault.seed", plan.seed);
}

std::string toJson(const FaultPlan& plan) {
  std::string crashes = "[";
  for (std::size_t k = 0; k < plan.crashes.size(); ++k) {
    if (k) crashes += ',';
    obs::JsonObjectWriter c;
    c.field("robot", static_cast<std::uint64_t>(plan.crashes[k].robot));
    c.field("at_event", plan.crashes[k].atEvent);
    crashes += c.str();
  }
  crashes += ']';
  obs::JsonObjectWriter w;
  w.rawField("crashes", crashes);
  w.field("noise_sigma", plan.noiseSigma);
  w.field("omit_prob", plan.omitProb);
  w.field("mult_flip_prob", plan.multFlipProb);
  w.field("drop_prob", plan.dropProb);
  w.field("trunc_prob", plan.truncProb);
  w.field("seed", plan.seed);
  return w.str();
}

FaultPlan planFromJson(const obs::JsonNode& node) {
  using Kind = obs::JsonNode::Kind;
  const std::string what = "FaultPlan";
  static constexpr std::string_view kKeys[] = {
      "crashes",   "noise_sigma", "omit_prob", "mult_flip_prob",
      "drop_prob", "trunc_prob",  "seed"};
  static constexpr std::string_view kCrashKeys[] = {"robot", "at_event"};
  obs::rejectUnknownKeys(node, kKeys, what);
  FaultPlan plan;
  for (const obs::JsonNode& entry :
       obs::requireMember(node, "crashes", Kind::Array, what).items) {
    // A non-object entry has no members, so it fails as a missing key.
    obs::rejectUnknownKeys(entry, kCrashKeys, what + " crash");
    CrashFault c;
    c.robot = static_cast<std::size_t>(obs::requireU64(entry, "robot", what));
    c.atEvent = obs::requireU64(entry, "at_event", what);
    plan.crashes.push_back(c);
  }
  const auto number = [&](const char* key) {
    return obs::requireMember(node, key, Kind::Number, what).number;
  };
  plan.noiseSigma = number("noise_sigma");
  plan.omitProb = number("omit_prob");
  plan.multFlipProb = number("mult_flip_prob");
  plan.dropProb = number("drop_prob");
  plan.truncProb = number("trunc_prob");
  plan.seed = obs::requireU64(node, "seed", what);
  return plan;
}

std::uint64_t faultStreamSeed(std::uint64_t engineSeed,
                              std::uint64_t planSeed) {
  return splitmix64(splitmix64(engineSeed) ^ planSeed ^
                    0xfa0177c0de5eedull);
}

}  // namespace apf::fault

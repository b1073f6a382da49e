#include "cli/env.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace apf::cli {

int parseJobsValue(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) return 0;
  return parsed > 512 ? 512 : static_cast<int>(parsed);
}

int jobsFromEnv() {
  const char* v = std::getenv("APF_JOBS");
  if (v == nullptr || *v == '\0') return 0;
  const int jobs = parseJobsValue(v);
  if (jobs == 0) {
    // Garbage ("abc", "4x", "0", "-2") used to fall through silently, and a
    // typo'd APF_JOBS=l6 quietly ran a different experiment. Warn per
    // resolution; the fallback itself is the caller's.
    std::fprintf(stderr,
                 "apf: ignoring unparsable APF_JOBS=\"%s\" "
                 "(want an integer >= 1); using hardware concurrency\n",
                 v);
  }
  return jobs;
}

bool parseBoolValue(const char* name, const char* value) {
  if (value == nullptr || *value == '\0') return false;
  auto is = [value](const char* s) { return std::strcmp(value, s) == 0; };
  if (is("0") || is("false") || is("off") || is("no")) return false;
  if (is("1") || is("true") || is("on") || is("yes")) return true;
  std::fprintf(stderr,
               "apf: %s=\"%s\" is not a recognized boolean "
               "(use 0/1/true/false/on/off/yes/no); treating as enabled\n",
               name, value);
  return true;  // historical rule: any value not starting with '0' enabled
}

const Env& env() {
  static const Env snapshot = [] {
    Env e;
    e.jobs = jobsFromEnv();
    if (const char* v = std::getenv("APF_RESULTS_DIR");
        v != nullptr && *v != '\0') {
      e.resultsDir = v;
    }
    if (const char* v = std::getenv("APF_OBS_DIR");
        v != nullptr && *v != '\0') {
      e.obsDir = v;
    }
    e.obsEvents = parseBoolValue("APF_OBS_EVENTS",
                                 std::getenv("APF_OBS_EVENTS"));
    e.obsTrace = parseBoolValue("APF_OBS_TRACE",
                                std::getenv("APF_OBS_TRACE"));
    return e;
  }();
  return snapshot;
}

}  // namespace apf::cli

#include "sim/campaign.h"

#include "cli/env.h"

namespace apf::sim {

int campaignJobs(int requested) {
  if (requested > 0) return requested > 512 ? 512 : requested;
  // Deliberately re-reads the environment each call (tests vary APF_JOBS
  // between campaigns within one process) via the shared parse-and-warn
  // path in cli/env.h, instead of cli::env()'s once-per-process snapshot.
  if (const int jobs = cli::jobsFromEnv(); jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace apf::sim

#include "sim/supervisor.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "sched/seed.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace apf::sim {

namespace {

/// fsync the stdio stream (after fflush). Durability is the whole point of
/// the journal: a SIGKILL between append() returning and the next line
/// must not lose the entry.
void syncFile(std::FILE* f) {
#if defined(_WIN32)
  _commit(_fileno(f));
#else
  ::fsync(fileno(f));
#endif
}

void truncateFile(std::FILE* f, long length) {
#if defined(_WIN32)
  _chsize(_fileno(f), length);
#else
  if (::ftruncate(fileno(f), static_cast<off_t>(length)) != 0) {
    throw std::runtime_error(std::string("journal: ftruncate failed: ") +
                             std::strerror(errno));
  }
#endif
}

}  // namespace

const char* failureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::TimeoutCycles:
      return "timeout_cycles";
    case FailureKind::TimeoutWall:
      return "timeout_wall";
    case FailureKind::Exception:
      return "exception";
  }
  return "?";
}

std::uint64_t retrySeedSalt(int number) {
  // Attempts 0 and 1 share the base seed: attempt 1 is the same-seed
  // determinism proof, not a new draw. Later attempts rotate through a
  // fixed splitmix64 sequence (sched/seed.h, the shared derivation path)
  // so retried campaigns stay reproducible.
  if (number <= 1) return 0;
  return sched::splitmix64(static_cast<std::uint64_t>(number));
}

bool sameFailure(const AttemptFailure& a, const AttemptFailure& b) {
  return a.kind == b.kind && a.atCycles == b.atCycles &&
         a.message == b.message;
}

void SupervisorReport::absorb(const SupervisorReport& other) {
  items += other.items;
  completed += other.completed;
  replayed += other.replayed;
  retries += other.retries;
  quarantined += other.quarantined;
  timeoutsCycle += other.timeoutsCycle;
  timeoutsWall += other.timeoutsWall;
  exceptions += other.exceptions;
  quarantine.insert(quarantine.end(), other.quarantine.begin(),
                    other.quarantine.end());
}

std::string SupervisorReport::toJson() const {
  std::string quarantineJson = "[";
  for (std::size_t q = 0; q < quarantine.size(); ++q) {
    if (q) quarantineJson += ',';
    const QuarantinedItem& item = quarantine[q];
    std::string attempts = "[";
    for (std::size_t a = 0; a < item.attempts.size(); ++a) {
      if (a) attempts += ',';
      const AttemptFailure& f = item.attempts[a];
      obs::JsonObjectWriter w;
      w.field("kind", failureKindName(f.kind));
      w.field("attempt", f.attempt);
      w.field("seed_salt", f.seedSalt);
      w.field("at_cycles", f.atCycles);
      w.field("message", f.message);
      attempts += w.str();
    }
    attempts += ']';
    obs::JsonObjectWriter w;
    w.field("index", static_cast<std::uint64_t>(item.index));
    w.field("deterministic", item.deterministic);
    w.rawField("attempts", attempts);
    quarantineJson += w.str();
  }
  quarantineJson += ']';

  obs::JsonObjectWriter w;
  w.field("report", "apf.supervisor.v1");
  w.field("items", items);
  w.field("completed", completed);
  w.field("replayed", replayed);
  w.field("retries", retries);
  w.field("quarantined", quarantined);
  w.field("timeouts_cycle", timeoutsCycle);
  w.field("timeouts_wall", timeoutsWall);
  w.field("exceptions", exceptions);
  w.rawField("quarantine", quarantineJson);
  return w.str();
}

void SupervisorReport::write(const std::string& path) const {
  obs::createParentDirs(path);
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("SupervisorReport: cannot open for write: " +
                             path);
  }
  os << toJson() << '\n';
  os.flush();
  if (os.fail()) {
    throw std::runtime_error("SupervisorReport: write failed: " + path);
  }
}

void appendManifest(const SupervisorOptions& opts,
                    const SupervisorReport& report, obs::Manifest& m) {
  m.set("supervisor.cycle_budget", opts.cycleBudget);
  m.set("supervisor.wall_budget_nanos", opts.wallBudgetNanos);
  m.set("supervisor.max_retries", opts.maxRetries);
  m.set("supervisor.items", report.items);
  m.set("supervisor.completed", report.completed);
  m.set("supervisor.replayed", report.replayed);
  m.set("supervisor.retries", report.retries);
  m.set("supervisor.quarantined", report.quarantined);
  m.set("supervisor.timeouts_cycle", report.timeoutsCycle);
  m.set("supervisor.timeouts_wall", report.timeoutsWall);
  m.set("supervisor.exceptions", report.exceptions);
}

void appendManifestInvariant(const SupervisorOptions& opts,
                             const SupervisorReport& report,
                             obs::Manifest& m) {
  m.set("supervisor.cycle_budget", opts.cycleBudget);
  m.set("supervisor.wall_budget_nanos", opts.wallBudgetNanos);
  m.set("supervisor.max_retries", opts.maxRetries);
  m.set("supervisor.items", report.items);
  // The fresh-vs-replayed split depends on where a campaign was killed;
  // only the sum survives resume (and shard-merge) byte-comparison.
  m.set("supervisor.finished", report.completed + report.replayed);
  m.set("supervisor.retries", report.retries);
  m.set("supervisor.quarantined", report.quarantined);
  m.set("supervisor.timeouts_cycle", report.timeoutsCycle);
  m.set("supervisor.timeouts_wall", report.timeoutsWall);
  m.set("supervisor.exceptions", report.exceptions);
}

namespace detail {

void MergeSink::classify(const AttemptFailure& failure) {
  switch (failure.kind) {
    case FailureKind::TimeoutCycles:
      ++report_.timeoutsCycle;
      break;
    case FailureKind::TimeoutWall:
      ++report_.timeoutsWall;
      break;
    case FailureKind::Exception:
      ++report_.exceptions;
      break;
  }
}

void MergeSink::emitFailure(std::size_t index, const AttemptFailure& failure,
                            bool retried) {
  if (recorder_ == nullptr) return;
  if (failure.kind != FailureKind::Exception) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunTimeout;
    ev.index = eventIndex_++;
    ev.robot = static_cast<std::int64_t>(index);
    ev.phaseTag = failure.attempt;
    ev.bitsUsed = failure.atCycles;
    ev.flag = failure.kind == FailureKind::TimeoutWall;
    recorder_->record(ev);
  }
  if (retried) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunRetried;
    ev.index = eventIndex_++;
    ev.robot = static_cast<std::int64_t>(index);
    ev.phaseTag = failure.attempt + 1;  // the attempt being started
    ev.bitsUsed = retrySeedSalt(failure.attempt + 1);
    recorder_->record(ev);
  }
}

void MergeSink::recordRetries(std::size_t index,
                              const std::vector<AttemptFailure>& failures) {
  for (const AttemptFailure& f : failures) {
    classify(f);
    ++report_.retries;
    emitFailure(index, f, /*retried=*/true);
  }
}

void MergeSink::recordQuarantine(std::size_t index, bool deterministic,
                                 std::vector<AttemptFailure> failures) {
  for (std::size_t k = 0; k < failures.size(); ++k) {
    classify(failures[k]);
    const bool retried = k + 1 < failures.size();
    if (retried) ++report_.retries;
    emitFailure(index, failures[k], retried);
  }
  ++report_.quarantined;
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.kind = obs::EventKind::RunQuarantined;
    ev.index = eventIndex_++;
    ev.robot = static_cast<std::int64_t>(index);
    ev.phaseTag = static_cast<int>(failures.size());
    ev.flag = deterministic;
    recorder_->record(ev);
  }
  QuarantinedItem item;
  item.index = index;
  item.deterministic = deterministic;
  item.attempts = std::move(failures);
  report_.quarantine.push_back(std::move(item));
}

void MergeSink::recordCheckpoint(std::size_t index,
                                 std::size_t payloadBytes) {
  if (recorder_ == nullptr) return;
  obs::Event ev;
  ev.kind = obs::EventKind::Checkpoint;
  ev.index = eventIndex_++;
  ev.robot = static_cast<std::int64_t>(index);
  ev.bitsUsed = payloadBytes;
  recorder_->record(ev);
}

}  // namespace detail

CampaignJournal::CampaignJournal(std::string path, std::string configKey,
                                 bool resume)
    : path_(std::move(path)), configKey_(std::move(configKey)) {
  obs::createParentDirs(path_);

  std::string content;
  if (resume) {
    std::ifstream is(path_, std::ios::binary);
    if (is) {
      std::ostringstream buf;
      buf << is.rdbuf();
      content = buf.str();
    }
  }

  std::size_t validLen = 0;
  if (!content.empty()) {
    // Walk complete ('\n'-terminated) lines. The first is the header; the
    // rest are entries. A final unterminated or unparsable tail is the
    // signature of a kill mid-write: drop it (and truncate it away below)
    // so the resumed file can converge byte-identical to an uninterrupted
    // one. Malformed lines elsewhere mean real corruption and throw.
    std::size_t pos = 0;
    bool sawHeader = false;
    while (pos < content.size()) {
      const std::size_t nl = content.find('\n', pos);
      if (nl == std::string::npos) {
        recoveredTornLine_ = true;
        break;
      }
      const std::string_view line(content.data() + pos, nl - pos);
      const auto obj = obs::parseFlatObject(line);
      const bool lastLine = nl + 1 >= content.size();
      if (!obj) {
        if (lastLine) {
          recoveredTornLine_ = true;
          break;
        }
        throw std::runtime_error("journal: corrupt line in " + path_);
      }
      if (!sawHeader) {
        const auto schema = obj->find("journal");
        if (schema == obj->end() ||
            schema->second.asString() != kSchema) {
          throw std::runtime_error("journal: " + path_ +
                                   " is not an apf.journal.v1 file");
        }
        const auto config = obj->find("config");
        if (config == obj->end() ||
            config->second.asString() != configKey_) {
          throw std::runtime_error(
              "journal: config mismatch — " + path_ +
              " records a different campaign; refusing to merge");
        }
        sawHeader = true;
      } else {
        const auto idx = obj->find("i");
        const auto payload = obj->find("payload");
        if (idx == obj->end() ||
            idx->second.kind != obs::JsonValue::Kind::Number ||
            payload == obj->end() ||
            payload->second.kind != obs::JsonValue::Kind::String) {
          if (lastLine) {
            recoveredTornLine_ = true;
            break;
          }
          throw std::runtime_error("journal: malformed entry in " + path_);
        }
        entries_[static_cast<std::size_t>(idx->second.number)] =
            payload->second.string;
      }
      pos = nl + 1;
      validLen = pos;
    }
  }

  const bool haveValidPrefix = validLen > 0;
  file_ = std::fopen(path_.c_str(), haveValidPrefix ? "r+b" : "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("journal: cannot open for write: " + path_);
  }
  if (haveValidPrefix) {
    truncateFile(file_, static_cast<long>(validLen));
    if (std::fseek(file_, static_cast<long>(validLen), SEEK_SET) != 0) {
      throw std::runtime_error("journal: seek failed: " + path_);
    }
  } else {
    obs::JsonObjectWriter w;
    w.field("journal", kSchema);
    w.field("config", configKey_);
    const std::string header = w.str() + '\n';
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
      throw std::runtime_error("journal: header write failed: " + path_);
    }
  }
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush failed: " + path_);
  }
  syncFile(file_);
}

CampaignJournal::~CampaignJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

const std::string* CampaignJournal::payload(std::size_t index) const {
  const auto it = entries_.find(index);
  return it == entries_.end() ? nullptr : &it->second;
}

void CampaignJournal::append(std::size_t index, const std::string& payload) {
  obs::JsonObjectWriter w;
  w.field("i", static_cast<std::uint64_t>(index));
  w.field("payload", payload);
  const std::string line = w.str() + '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("journal: append failed: " + path_);
  }
  syncFile(file_);
  entries_[index] = payload;
}

}  // namespace apf::sim

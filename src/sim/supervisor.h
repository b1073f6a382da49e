#pragma once

/// \file supervisor.h
/// Resilience layer around sim::runCampaign (docs/RESILIENCE.md): watchdog
/// deadlines, bounded retry with quarantine, and crash-safe checkpoint
/// journaling. A campaign of a million seeded runs must survive one
/// livelocked schedule, one throwing worker, and one SIGKILL without
/// discarding everything it already computed — and it must do so without
/// perturbing a single bit of the merged output of the runs that succeed.
///
/// Determinism contract (tests/supervisor_test.cpp):
///  * A supervised campaign whose items all succeed on their first attempt
///    merges bit-identical to the unsupervised runCampaign — the supervisor
///    adds no RNG draws, no reordering, and (cycle watchdogs only) no
///    clock-dependent behavior.
///  * Cycle budgets (Watchdog::poll with wall budget 0) are exact: the
///    same item times out at the same cycle count on every machine. Wall
///    budgets are inherently nondeterministic and exist for CI liveness;
///    use cycle budgets wherever reproducibility matters.
///  * Retry policy: attempt 1 reuses the SAME seed as attempt 0 (seedSalt
///    0) to prove determinism — if it fails identically, the failure is a
///    property of the item, not of scheduling noise, and the item is
///    quarantined immediately with `deterministic = true`. Only a
///    *differing* second failure rotates the seed (retrySeedSalt) for
///    later attempts.
///  * With a CampaignJournal attached, a completed run's payload is
///    journaled before it merges, and a resumed campaign merges the
///    journaled bytes of the runs it skips — the same bytes a fresh run
///    merges — so it is bit-identical to an uninterrupted one by
///    construction.
///
/// Quarantine is a structured report, not an abort: persistently failing
/// items are recorded (index, classified failure kinds, per-attempt
/// messages) and the pool keeps draining the remaining items. Callers
/// decide whether a non-empty quarantine fails the job.

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/manifest.h"
#include "obs/recorder.h"
#include "sim/campaign.h"

namespace apf::sim {

/// Why a supervised attempt failed.
enum class FailureKind : std::uint8_t {
  TimeoutCycles,  ///< watchdog cycle budget exhausted (deterministic)
  TimeoutWall,    ///< watchdog wall-clock budget exhausted
  Exception,      ///< worker threw (engine error, bad plan, ...)
};

/// Stable wire name ("timeout_cycles" / "timeout_wall" / "exception").
const char* failureKindName(FailureKind kind);

/// Thrown out of Engine::run (via EngineOptions::watchdog) or any worker
/// that polls a Watchdog, and caught by the supervisor's attempt loop.
class WatchdogExpired : public std::runtime_error {
 public:
  WatchdogExpired(FailureKind kind, std::uint64_t atCycles,
                  const std::string& what)
      : std::runtime_error(what), kind_(kind), atCycles_(atCycles) {}
  FailureKind kind() const { return kind_; }
  /// Cycle counter value at expiry (exact for cycle budgets; the value at
  /// the detecting poll for wall budgets).
  std::uint64_t atCycles() const { return atCycles_; }

 private:
  FailureKind kind_;
  std::uint64_t atCycles_;
};

/// Cooperative deadline. The supervised code polls it at a deterministic
/// granularity — the engine polls once per scheduler event (LCM-step
/// granularity), so a cycle budget trips at the exact same point of the
/// exact same run on every machine. The wall budget is checked every
/// kWallCheckInterval polls to keep clock reads off the hot path; a budget
/// of 0 disables the corresponding check.
class Watchdog {
 public:
  static constexpr std::uint64_t kWallCheckInterval = 128;

  Watchdog(std::uint64_t cycleBudget, std::uint64_t wallBudgetNanos)
      : cycleBudget_(cycleBudget), wallBudgetNanos_(wallBudgetNanos) {}

  std::uint64_t cycleBudget() const { return cycleBudget_; }
  std::uint64_t wallBudgetNanos() const { return wallBudgetNanos_; }

  /// Throws WatchdogExpired when a budget is exhausted. `cycles` is the
  /// supervised code's own deterministic progress counter (the engine
  /// passes Metrics::events).
  void poll(std::uint64_t cycles) {
    if (cycleBudget_ != 0 && cycles >= cycleBudget_) {
      throw WatchdogExpired(
          FailureKind::TimeoutCycles, cycles,
          "watchdog: cycle budget " + std::to_string(cycleBudget_) +
              " exhausted");
    }
    if (wallBudgetNanos_ != 0 && ++polls_ % kWallCheckInterval == 0) {
      const std::uint64_t now = obs::nowNanos();
      if (deadlineNanos_ == 0) {
        // Lazily armed at the first wall check so construction stays free.
        deadlineNanos_ = now + wallBudgetNanos_;
      } else if (now >= deadlineNanos_) {
        throw WatchdogExpired(
            FailureKind::TimeoutWall, cycles,
            "watchdog: wall budget " + std::to_string(wallBudgetNanos_) +
                "ns exhausted");
      }
    }
  }

 private:
  std::uint64_t cycleBudget_ = 0;
  std::uint64_t wallBudgetNanos_ = 0;
  std::uint64_t deadlineNanos_ = 0;
  std::uint64_t polls_ = 0;
};

struct SupervisorOptions {
  /// Per-attempt cycle budget (engine scheduler events); 0 = no limit.
  std::uint64_t cycleBudget = 0;
  /// Per-attempt wall budget in nanoseconds; 0 = no limit. Nondeterministic
  /// by nature — prefer cycleBudget for anything reproducible.
  std::uint64_t wallBudgetNanos = 0;
  /// Failed attempts are retried up to this many times (attempt 0 plus
  /// maxRetries further attempts). 0 = quarantine on first failure.
  int maxRetries = 2;
  /// Sink for run_timeout / run_retried / run_quarantined / checkpoint
  /// events. Events are emitted on the merge thread, in merge order, so the
  /// sink needs no locking and supervised logs are deterministic.
  obs::Recorder* recorder = nullptr;
};

/// What the supervisor hands a worker about the attempt it is executing.
/// Workers that want deadline enforcement must poll `watchdog` (the engine
/// does when EngineOptions::watchdog is set); workers that want reseeded
/// retries must fold `seedSalt` into their seed (XOR is fine — salts are
/// splitmix64-mixed). Ignoring both is valid: the supervisor still
/// classifies exceptions and retries.
struct Attempt {
  int number = 0;             ///< 0 = first attempt
  std::uint64_t seedSalt = 0; ///< 0 for attempts 0 and 1 (same-seed proof)
  Watchdog* watchdog = nullptr;
};

/// Salt for attempt `number`: 0 for attempts 0 and 1 (the same-seed
/// determinism proof), a fixed splitmix64 mix of the attempt number after
/// that. Pure function, so a retried campaign is itself reproducible.
std::uint64_t retrySeedSalt(int number);

/// One classified failed attempt.
struct AttemptFailure {
  FailureKind kind = FailureKind::Exception;
  int attempt = 0;
  std::uint64_t seedSalt = 0;
  std::uint64_t atCycles = 0;  ///< watchdog cycles at expiry; 0 for throws
  std::string message;
};

/// Two failures that prove each other deterministic: same kind, same
/// deterministic coordinates, same message.
bool sameFailure(const AttemptFailure& a, const AttemptFailure& b);

/// An item that exhausted its retry budget (or proved deterministic).
struct QuarantinedItem {
  std::size_t index = 0;
  /// True when a same-seed retry reproduced the identical failure.
  bool deterministic = false;
  std::vector<AttemptFailure> attempts;  ///< every failed attempt, in order
};

struct SupervisorReport {
  std::uint64_t items = 0;      ///< campaign size
  std::uint64_t completed = 0;  ///< merged from a fresh worker run
  std::uint64_t replayed = 0;   ///< merged from the journal (resume)
  std::uint64_t retries = 0;    ///< failed attempts that were retried
  std::uint64_t quarantined = 0;
  std::uint64_t timeoutsCycle = 0;
  std::uint64_t timeoutsWall = 0;
  std::uint64_t exceptions = 0;
  std::vector<QuarantinedItem> quarantine;

  bool allCompleted() const { return quarantined == 0; }
  /// Folds another report into this one (bench cells aggregating).
  void absorb(const SupervisorReport& other);
  /// Structured nested-JSON report (schema "apf.supervisor.v1") including
  /// the full quarantine list.
  std::string toJson() const;
  /// Writes toJson() + newline, creating parent directories.
  void write(const std::string& path) const;
};

/// `supervisor.*` manifest keys (consumed by apf_report's resilience
/// section). Options and report are serialized together so a manifest
/// records both the policy and what it did.
void appendManifest(const SupervisorOptions& opts,
                    const SupervisorReport& report, obs::Manifest& manifest);

/// Resume-invariant variant: collapses the fresh-vs-replayed split into a
/// single `supervisor.finished` key (their sum IS invariant) so a resumed
/// or sharded campaign's manifest stays byte-identical to an
/// uninterrupted single-process one — the same reasoning that keeps the
/// split out of apf_sim's --json document.
void appendManifestInvariant(const SupervisorOptions& opts,
                             const SupervisorReport& report,
                             obs::Manifest& manifest);

/// Crash-safe campaign checkpoint: one fsync'd JSONL file. Line 1 is a
/// header `{"journal":"apf.journal.v1","config":<key>}`; every later line
/// is `{"i":<index>,"payload":<encoded result>}`, appended + fsync'd the
/// moment the item merges. A process killed mid-write leaves at most one
/// torn final line, which resume drops (and truncates away) — so a resumed
/// journal file converges byte-identical to an uninterrupted one.
class CampaignJournal {
 public:
  static constexpr const char* kSchema = "apf.journal.v1";

  /// Opens (resume = true) or creates/truncates (resume = false) the
  /// journal. `configKey` identifies the campaign — resuming a journal
  /// whose header records a different key throws, because merging results
  /// of a different experiment would be silent corruption.
  CampaignJournal(std::string path, std::string configKey, bool resume);
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  const std::string& path() const { return path_; }
  /// True when resume dropped a torn final line (the SIGKILL signature).
  bool recoveredTornLine() const { return recoveredTornLine_; }
  std::size_t completedCount() const { return entries_.size(); }
  bool has(std::size_t index) const { return entries_.count(index) != 0; }
  /// Payload journaled for `index`, or nullptr.
  const std::string* payload(std::size_t index) const;
  /// Appends + flushes + fsyncs one completed item. Throws on I/O failure.
  void append(std::size_t index, const std::string& payload);

 private:
  std::string path_;
  std::string configKey_;
  std::map<std::size_t, std::string> entries_;
  std::FILE* file_ = nullptr;
  bool recoveredTornLine_ = false;
};

namespace detail {

/// Per-item record the supervised worker posts through the mailbox.
template <typename Result>
struct Supervised {
  bool ok = false;
  Result result{};  // valid iff ok
  bool deterministic = false;
  std::vector<AttemptFailure> failures;  // non-empty iff retried or !ok
};

/// Runs the attempt loop for run `index`. Worker signature:
///   Result worker(std::size_t index, const Attempt&)
template <typename Result, typename Worker>
Supervised<Result> runAttempts(std::size_t index, Worker& worker,
                               const SupervisorOptions& opts) {
  Supervised<Result> out;
  const int maxAttempts = 1 + (opts.maxRetries > 0 ? opts.maxRetries : 0);
  for (int number = 0; number < maxAttempts; ++number) {
    Watchdog dog(opts.cycleBudget, opts.wallBudgetNanos);
    Attempt attempt;
    attempt.number = number;
    attempt.seedSalt = retrySeedSalt(number);
    attempt.watchdog = &dog;
    try {
      out.result = worker(index, attempt);
      out.ok = true;
      return out;
    } catch (const WatchdogExpired& e) {
      out.failures.push_back({e.kind(), number, attempt.seedSalt,
                              e.atCycles(), e.what()});
    } catch (const std::exception& e) {
      out.failures.push_back(
          {FailureKind::Exception, number, attempt.seedSalt, 0, e.what()});
    }
    if (number == 1 && sameFailure(out.failures[0], out.failures[1])) {
      // Same seed, same failure: deterministic. Retrying with rotated
      // seeds would only change the experiment, not fix the item.
      out.deterministic = true;
      return out;
    }
  }
  return out;
}

/// Merge-thread bookkeeping of superviseCampaign: classifies failures into
/// the report and emits supervisor events (on the merge thread only —
/// Recorder is not thread-safe, and merge order makes the event log
/// deterministic).
class MergeSink {
 public:
  MergeSink(SupervisorReport& report, const SupervisorOptions& opts)
      : report_(report), recorder_(opts.recorder) {}

  /// Failed attempts of an item that eventually succeeded.
  void recordRetries(std::size_t index,
                     const std::vector<AttemptFailure>& failures);
  void recordQuarantine(std::size_t index, bool deterministic,
                        std::vector<AttemptFailure> failures);
  void recordCheckpoint(std::size_t index, std::size_t payloadBytes);

 private:
  void classify(const AttemptFailure& failure);
  void emitFailure(std::size_t index, const AttemptFailure& failure,
                   bool retried);

  SupervisorReport& report_;
  obs::Recorder* recorder_;
  std::uint64_t eventIndex_ = 0;
};

}  // namespace detail

/// Supervised, optionally journaled campaign over the GLOBAL run indices
/// [lo, hi) — the one campaign driver behind apf_sim's campaigns and
/// shards (sim/shard.h), est::runAdaptive and the supervised benches.
///   Result worker(std::size_t index, const Attempt&)
///   void merge(std::size_t index, Result&&)
/// merge is only called for runs that completed, on the calling thread, in
/// ascending index order; failed runs land in the returned report's
/// quarantine instead of aborting the pool. Exceptions escaping merge
/// itself still cancel the campaign.
///
/// With a journal (Result must then be std::string), runs the journal
/// already holds are NOT re-executed: their payloads merge in place
/// (report.replayed). Every fresh result is appended + fsync'd before its
/// merge call, so a crash after the call never loses the run. Replayed and
/// fresh runs hand merge the same bytes, which is why a resumed campaign
/// merges bit-identical to an uninterrupted one.
template <typename Worker, typename Merge>
SupervisorReport superviseCampaign(std::size_t lo, std::size_t hi,
                                   Worker&& worker, Merge&& merge,
                                   const SupervisorOptions& opts = {},
                                   CampaignJournal* journal = nullptr,
                                   int jobs = 0,
                                   CampaignStats* stats = nullptr) {
  using Result = std::invoke_result_t<Worker&, std::size_t, const Attempt&>;
  constexpr bool kJournalable = std::is_same_v<Result, std::string>;
  if (!kJournalable && journal != nullptr) {
    throw std::invalid_argument(
        "superviseCampaign: a journal needs std::string results");
  }
  SupervisorReport report;
  report.items = hi - lo;
  detail::MergeSink sink(report, opts);

  // Only the runs the journal lacks go to the pool. Before fresh run i
  // merges, every journaled run below i is replayed, so merge still sees
  // [lo, hi) in ascending order.
  std::vector<std::size_t> todo;
  todo.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    if (journal == nullptr || !journal->has(i)) todo.push_back(i);
  }
  std::size_t cursor = lo;  // first index not yet handed to merge
  auto replayBelow = [&](std::size_t limit) {
    for (; cursor < limit; ++cursor) {
      if constexpr (kJournalable) {
        const std::string* payload =
            journal != nullptr ? journal->payload(cursor) : nullptr;
        if (payload != nullptr) {
          ++report.replayed;
          merge(cursor, std::string(*payload));
        }
      }
    }
  };

  runCampaign(
      todo,
      [&worker, &opts](std::size_t index, std::size_t) {
        return detail::runAttempts<Result>(index, worker, opts);
      },
      [&](std::size_t t, detail::Supervised<Result>&& s) {
        const std::size_t index = todo[t];
        replayBelow(index);
        cursor = index + 1;
        if (!s.ok) {
          sink.recordQuarantine(index, s.deterministic,
                                std::move(s.failures));
          return;
        }
        sink.recordRetries(index, s.failures);
        if constexpr (kJournalable) {
          if (journal != nullptr) {
            journal->append(index, s.result);
            sink.recordCheckpoint(index, s.result.size());
          }
        }
        ++report.completed;
        merge(index, std::move(s.result));
      },
      jobs, stats);
  replayBelow(hi);
  return report;
}

}  // namespace apf::sim

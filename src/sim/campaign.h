#pragma once

/// \file campaign.h
/// Parallel campaign executor: fans independent seeded runs out across a
/// fixed-size thread pool and merges their results IN RUN-INDEX ORDER, so
/// every CSV row, FuzzResult, and aggregate statistic is bit-identical to
/// the serial output regardless of thread count.
///
/// Determinism contract:
///  * `worker(item, index)` must be a pure function of its arguments plus
///    thread-confined state it creates itself (its own Engine, RNG streams,
///    config::Rng, obs sink). It must not touch shared mutable state; in
///    particular it must not call `sec()`, `weberPoint()` or `polar(c)` on
///    a Configuration instance shared with other threads unless that cache
///    (for `polar`, that center's table) was warmed before the fan-out
///    (see config/configuration.h and docs/PERFORMANCE.md).
///  * `merge(index, result)` runs on the calling thread only, in strict
///    index order 0, 1, 2, ... — never concurrently with itself.
///  * With jobs == 1 no threads are spawned at all: the campaign is a plain
///    serial loop, byte-identical to the historical single-threaded code.
///  * Telemetry is passive: requesting CampaignStats and/or recording
///    trace spans (obs/span.h) reads clocks but never feeds anything back
///    into workers or merge order, so instrumented campaigns produce
///    bit-identical merged results (tests/campaign_test.cpp).
///
/// Mechanics: workers claim run indices from an atomic counter, post
/// finished results into a mutex-protected mailbox, and the caller drains
/// the mailbox in batches, buffering out-of-order arrivals until the next
/// index in sequence is available. A worker exception cancels the campaign
/// (remaining items are abandoned) and is rethrown on the calling thread
/// after all workers have drained.
///
/// Observability (docs/OBSERVABILITY.md):
///  * With an obs::SpanCollector installed, each worker emits
///    claim/run/post spans (category "campaign") and the calling thread
///    emits merge_stall/merge spans, so a Chrome trace shows exactly where
///    pool wall-clock goes.
///  * Passing a CampaignStats* fills a summary of the pool's behavior:
///    busy vs idle worker time, mailbox and out-of-order buffer high-water
///    marks, merge-stall time.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "obs/stats.h"

namespace apf::sim {

/// Resolves the worker-thread count for a campaign. `requested` > 0 wins;
/// otherwise the APF_JOBS environment variable (clamped to [1, 512]);
/// otherwise std::thread::hardware_concurrency() (at least 1). Not cached,
/// so tests may vary APF_JOBS between calls.
int campaignJobs(int requested = 0);

/// Pool telemetry for one campaign. All durations are steady-clock
/// nanoseconds. Collection is opt-in (pass a CampaignStats* to
/// runCampaign); without it the executor reads no clocks beyond what span
/// recording itself requires.
struct CampaignStats {
  /// Worker threads actually used (1 = serial path, no threads spawned).
  int jobs = 0;
  /// Items executed (== items.size() unless a worker threw).
  std::uint64_t items = 0;
  /// Wall time of the whole runCampaign call.
  std::uint64_t wallNanos = 0;
  /// Sum over workers of time spent inside `worker(item, index)`.
  std::uint64_t workerBusyNanos = 0;
  /// Sum over workers of thread lifetime not spent in `worker` — claim,
  /// post, mailbox-lock waits, scheduling gaps. 0 on the serial path.
  std::uint64_t workerIdleNanos = 0;
  /// Max results sitting in the mailbox at once (post-side high water).
  std::uint64_t mailboxHighWater = 0;
  /// Max out-of-order results buffered while waiting for the next index
  /// in sequence (merge-side high water).
  std::uint64_t pendingHighWater = 0;
  /// Calling-thread time blocked waiting for results to arrive.
  std::uint64_t mergeStallNanos = 0;
  /// Calling-thread time inside `merge(index, result)` callbacks.
  std::uint64_t mergeNanos = 0;

  /// Busy share of total worker time, in [0, 1] (0 when untimed).
  double utilization() const {
    const double total =
        static_cast<double>(workerBusyNanos + workerIdleNanos);
    return total <= 0.0 ? 0.0
                        : static_cast<double>(workerBusyNanos) / total;
  }
};

template <typename Item, typename Worker, typename Merge>
void runCampaign(const std::vector<Item>& items, Worker&& worker,
                 Merge&& merge, int jobs = 0,
                 CampaignStats* stats = nullptr) {
  using Result = std::invoke_result_t<Worker&, const Item&, std::size_t>;
  const std::size_t n = items.size();
  const int resolved = campaignJobs(jobs);
  const bool timed = stats != nullptr;
  const std::uint64_t wall0 = timed ? obs::nowNanos() : 0;
  if (stats) *stats = CampaignStats{};
  if (resolved <= 1 || n <= 1) {
    // Serial path: exactly the historical loop, no threads, no mailbox.
    // Stats reduce to busy (worker) + merge time on the calling thread.
    // A worker throw still finalizes jobs/wall before propagating — same
    // stats-before-rethrow contract as the pool path, so a crashed
    // campaign's telemetry survives into the error report.
    try {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t t0 = timed ? obs::nowNanos() : 0;
      Result r = [&] {
        obs::ScopedSpan run("run", "campaign", "item",
                            static_cast<std::int64_t>(i));
        return worker(items[i], i);
      }();
      if (timed) {
        const std::uint64_t t1 = obs::nowNanos();
        stats->workerBusyNanos += t1 - t0;
        t0 = t1;
      }
      {
        obs::ScopedSpan m("merge", "campaign", "item",
                          static_cast<std::int64_t>(i));
        merge(i, std::move(r));
      }
      if (timed) stats->mergeNanos += obs::nowNanos() - t0;
      if (stats) stats->items += 1;
    }
    } catch (...) {
      if (stats) {
        stats->jobs = 1;
        stats->wallNanos = obs::nowNanos() - wall0;
      }
      throw;
    }
    if (stats) {
      stats->jobs = 1;
      stats->wallNanos = obs::nowNanos() - wall0;
    }
    return;
  }

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::pair<std::size_t, Result>> ready;
    std::exception_ptr error;
    // Telemetry accumulators (hwm under mu; worker sums are atomic so a
    // finishing worker never takes the mailbox lock just to report time).
    std::size_t readyHighWater = 0;
    std::atomic<std::uint64_t> busyNanos{0};
    std::atomic<std::uint64_t> lifeNanos{0};
  } box;
  std::atomic<std::size_t> next{0};

  auto body = [&]() {
    const std::uint64_t life0 = timed ? obs::nowNanos() : 0;
    std::uint64_t busy = 0;
    for (;;) {
      std::size_t i;
      {
        obs::ScopedSpan claim("claim", "campaign");
        i = next.fetch_add(1, std::memory_order_relaxed);
      }
      if (i >= n) break;
      try {
        const std::uint64_t t0 = timed ? obs::nowNanos() : 0;
        Result r = [&] {
          obs::ScopedSpan run("run", "campaign", "item",
                              static_cast<std::int64_t>(i));
          return worker(items[i], i);
        }();
        if (timed) busy += obs::nowNanos() - t0;
        {
          obs::ScopedSpan post("post", "campaign", "item",
                               static_cast<std::int64_t>(i));
          std::lock_guard<std::mutex> lock(box.mu);
          box.ready.emplace_back(i, std::move(r));
          box.readyHighWater = std::max(box.readyHighWater,
                                        box.ready.size());
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(box.mu);
          if (!box.error) box.error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // cancel remaining items
      }
      box.cv.notify_one();
    }
    if (timed) {
      box.busyNanos.fetch_add(busy, std::memory_order_relaxed);
      box.lifeNanos.fetch_add(obs::nowNanos() - life0,
                              std::memory_order_relaxed);
    }
  };

  const std::size_t threadCount =
      std::min<std::size_t>(static_cast<std::size_t>(resolved), n);
  std::vector<std::thread> pool;
  pool.reserve(threadCount);
  for (std::size_t t = 0; t < threadCount; ++t) pool.emplace_back(body);

  // Drain the mailbox in batches; apply merge in strict index order.
  std::map<std::size_t, Result> pending;
  std::size_t merged = 0;
  std::size_t pendingHighWater = 0;
  std::uint64_t stallNanos = 0;
  std::uint64_t mergeNanos = 0;
  {
    std::unique_lock<std::mutex> lock(box.mu);
    while (merged < n) {
      {
        obs::ScopedSpan stall("merge_stall", "campaign");
        const std::uint64_t t0 = timed ? obs::nowNanos() : 0;
        box.cv.wait(lock, [&] { return !box.ready.empty() || box.error; });
        if (timed) stallNanos += obs::nowNanos() - t0;
      }
      if (box.error) break;
      std::vector<std::pair<std::size_t, Result>> batch;
      batch.swap(box.ready);
      lock.unlock();
      const std::uint64_t m0 = timed ? obs::nowNanos() : 0;
      obs::ScopedSpan mergeSpan("merge", "campaign", "batch",
                                static_cast<std::int64_t>(batch.size()));
      for (auto& [i, r] : batch) pending.emplace(i, std::move(r));
      pendingHighWater = std::max(pendingHighWater, pending.size());
      for (auto it = pending.find(merged); it != pending.end();
           it = pending.find(merged)) {
        merge(merged, std::move(it->second));
        pending.erase(it);
        ++merged;
      }
      if (timed) mergeNanos += obs::nowNanos() - m0;
      lock.lock();
    }
  }
  for (std::thread& th : pool) th.join();
  if (stats) {
    stats->jobs = static_cast<int>(threadCount);
    stats->items = merged;
    stats->workerBusyNanos = box.busyNanos.load(std::memory_order_relaxed);
    const std::uint64_t life = box.lifeNanos.load(std::memory_order_relaxed);
    stats->workerIdleNanos =
        life > stats->workerBusyNanos ? life - stats->workerBusyNanos : 0;
    stats->mailboxHighWater = box.readyHighWater;
    stats->pendingHighWater = pendingHighWater;
    stats->mergeStallNanos = stallNanos;
    stats->mergeNanos = mergeNanos;
    stats->wallNanos = obs::nowNanos() - wall0;
  }
  if (box.error) std::rethrow_exception(box.error);
}

/// Convenience wrapper: runs the campaign and returns the results as a
/// vector in item order. Result must be default-constructible.
template <typename Item, typename Worker>
auto campaignMap(const std::vector<Item>& items, Worker&& worker,
                 int jobs = 0, CampaignStats* stats = nullptr) {
  using Result = std::invoke_result_t<Worker&, const Item&, std::size_t>;
  std::vector<Result> out(items.size());
  runCampaign(
      items, std::forward<Worker>(worker),
      [&](std::size_t i, Result&& r) { out[i] = std::move(r); }, jobs,
      stats);
  return out;
}

}  // namespace apf::sim

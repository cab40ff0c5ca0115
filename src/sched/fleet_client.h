// Client-side loops of the fleet work queue (the daemon side lives in
// sched/cache_server.h + sched/fleet_queue.h):
//
//   coordinator   `nnr_run --submit fig2,table2 --cache-url ...`
//                 enumerates the cacheable cells of the named studies,
//                 SUBMITs them once, then polls QUEUE_STAT printing a
//                 fleet-wide "[fleet] 412/960 cells" line until the queue
//                 drains. It never trains — workers do; afterwards the
//                 caller replays the studies locally (now warm) to produce
//                 byte-identical tables.
//
//   worker        `nnr_run --worker --cache-url ...`
//                 a stateless FETCH -> train -> PUT -> REPORT loop. Workers
//                 can join or leave mid-study: a fetched lease that dies
//                 with its worker returns the cell to the queue (TTL expiry
//                 or TCP disconnect), and the daemon marks a cell trained
//                 at PUT time, so a worker killed between PUT and REPORT
//                 still counts exactly once.
//
// Both loops degrade like the rest of the remote backend: an unreachable
// or restarted daemon costs retries (the daemon's queue snapshot survives a
// restart), never wrong results. Every retry goes through
// retry_with_window() (sched/remote_cache_backend.h), so it waits out the
// client's own reconnect window and then makes a real attempt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nnr::sched {

class CacheBackend;
class RemoteCacheBackend;

struct FleetSubmitOptions {
  /// QUEUE_STAT poll interval while waiting for the fleet to drain, and
  /// the base wait between SUBMIT retries (jittered +-50% per sleep; see
  /// jitter_seed).
  std::int64_t poll_ms = 500;
  /// Seed of the poll-jitter stream; 0 = pid-derived (production default).
  std::uint64_t jitter_seed = 0;
};

struct FleetSubmitSummary {
  std::uint64_t submitted = 0;     // newly enqueued by this submit
  std::uint64_t duplicates = 0;    // already tracked by the queue
  std::uint64_t already_done = 0;  // already in the cache at submit time
  std::int64_t uncacheable = 0;    // replicates skipped (train locally)
  // Fleet-wide queue state once drained.
  std::uint64_t total = 0;
  std::uint64_t trained = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;  // gave up after FleetQueue::kMaxAttempts
};

/// Submits every cacheable (cell, replicate) of the named studies (ids per
/// sched/registry.h; the caller validates names first) and blocks until the
/// fleet drains the queue, printing the [fleet] progress line to stderr.
/// nullopt when a bounded number of submit attempts all fail (daemon
/// unreachable, or a pre-queue daemon answering kError); SUBMIT is
/// idempotent, so retrying it costs at most duplicate counts. Daemon
/// restarts during the wait are tolerated: failed polls just retry after
/// poll_ms.
[[nodiscard]] std::optional<FleetSubmitSummary> fleet_submit_and_wait(
    RemoteCacheBackend& backend, const std::vector<std::string>& studies,
    const FleetSubmitOptions& options = {});

struct FleetWorkerOptions {
  /// Sleep between FETCH attempts while the queue has outstanding work
  /// held by other workers (nothing fetchable right now), and the base
  /// wait between FETCH retries while the daemon is unreachable. Every
  /// sleep in the worker is jittered +-50%, so N workers started together
  /// do not hammer a recovering daemon in phase.
  std::int64_t poll_ms = 500;
  /// Exit once the queue reports no outstanding work (outstanding == 0,
  /// total > 0). False keeps the worker alive for the next submit wave.
  bool exit_when_drained = true;
  /// Test hook: stop after this many granted cells (0 = unlimited).
  std::int64_t max_cells = 0;
  /// A failed store of a finished training run is retried this many times
  /// (jittered store_retry_ms apart) before the cell is reported kFailed.
  /// Training is the expensive part: under a flaky network, re-sending a
  /// PUT is vastly cheaper than burning one of the queue's bounded
  /// attempts and retraining the cell elsewhere.
  ///
  /// An undelivered REPORT is retried on the same schedule. In a
  /// single-daemon deployment a lost REPORT is benign — the PUT already
  /// settled the item on the same daemon — but with a sharded cache tier
  /// the queue daemon never sees a PUT bound for another shard, so REPORT
  /// is the only settlement path and a dropped frame must cost a retry,
  /// not the cell's exactly-once tally (the lease would expire and another
  /// worker would redo the cell as served).
  std::int64_t store_retries = 3;
  std::int64_t store_retry_ms = 200;
  /// Seed of the jitter stream; 0 = pid-derived (production default).
  std::uint64_t jitter_seed = 0;
};

struct FleetWorkerSummary {
  std::int64_t fetched = 0;
  std::int64_t trained = 0;
  std::int64_t served = 0;  // cache hit under the lease — no training
  std::int64_t failed = 0;  // reported kFailed (daemon may retry the cell)
};

/// The worker loop. Returns when the queue drains (see
/// FleetWorkerOptions::exit_when_drained) or max_cells is reached.
///
/// `backend` carries the queue RPCs (FETCH/REPORT) — the work queue lives
/// on ONE daemon, the first shard in the map (router.shard(0)). `cache`,
/// when non-null, carries the entry traffic (load before train, PUT after)
/// so results land on each key's owner shard; null routes entry traffic
/// through `backend` too. A retried PUT waits on its owner shard's
/// reconnect window when `cache` is the router itself.
FleetWorkerSummary fleet_run_worker(RemoteCacheBackend& backend,
                                    const FleetWorkerOptions& options = {},
                                    CacheBackend* cache = nullptr);

}  // namespace nnr::sched

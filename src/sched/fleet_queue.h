// The daemon-side fleet work queue: the state machine behind the
// SUBMIT/FETCH/REPORT opcodes (net/cache_protocol.h), owned and driven by
// sched::CacheServer. Pure bookkeeping — no sockets, no leases — so it is
// unit-testable in isolation and trivially race-free inside the daemon's
// single thread.
//
// One item per unique CellKey. Lifecycle:
//
//   pending --FETCH--> leased --REPORT/PUT--> done(trained|served|failed)
//      ^                  |
//      +---lease died-----+   (expiry, disconnect, or explicit release
//                              before a report: the item requeues; a
//                              kFailed report requeues too, up to
//                              kMaxAttempts, then parks as done(failed))
//
// Exactly-once trained accounting does NOT depend on the worker surviving
// to REPORT: the server calls on_stored() from its PUT handler, so a key
// that reaches the cache marks its item done(trained) even if the worker
// is SIGKILLed between PUT and REPORT. REPORT then finds the item already
// done and merely releases the lease.
//
// Durability: every state change that must survive a daemon restart
// (submit, done, requeue-with-attempts) rewrites a snapshot file inside
// the cache directory (serialize::replace_file, magic + FNV-1a trailer via
// serialize/binary_io.h). Leases are volatile by design — on load every
// leased item reverts to pending, the restart analogue of lease expiry —
// so FETCH transitions never touch disk.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/cell_key.h"

namespace nnr::sched {

/// One unit of fleet work: a (study, cell, replicate) coordinate plus the
/// content-addressed key the result must land under. Workers rebuild the
/// plan from the study name and verify the recomputed key matches — the
/// guard against environment skew between coordinator and worker.
struct FleetWorkItem {
  CellKey key{};
  std::string study;
  std::uint32_t cell = 0;
  std::uint32_t replicate = 0;
};

class FleetQueue {
 public:
  /// A kFailed report beyond this many attempts parks the item as
  /// done(failed) instead of requeueing — a deterministic crash in one
  /// cell must not wedge the whole fleet in a retry loop.
  static constexpr std::uint32_t kMaxAttempts = 3;

  enum class ItemState : std::uint8_t { kPending = 0, kLeased = 1, kDone = 2 };
  enum class Outcome : std::uint8_t { kTrained = 0, kServed = 1, kFailed = 2 };

  /// `snapshot_path` is where the queue persists itself; empty disables
  /// persistence (unit tests of the pure state machine).
  explicit FleetQueue(std::string snapshot_path);

  /// Restores a previous daemon's snapshot if one exists (leased items
  /// revert to pending). An unreadable or corrupt snapshot is discarded —
  /// losing a queue degrades to resubmission, never to a wedged daemon.
  void load();

  struct SubmitStats {
    std::uint64_t enqueued = 0;      // new pending items
    std::uint64_t duplicates = 0;    // key already pending/leased/done
    std::uint64_t already_done = 0;  // entry already in the cache
  };

  /// Enqueues `items`, deduplicating against every key the queue already
  /// tracks. `has_entry(key)` short-circuits keys whose result is already
  /// cached — they go straight to done(served). A submit that lands on a
  /// fully drained queue starts a fresh wave: prior done items are cleared
  /// first so progress counters restart at 0/N.
  SubmitStats submit(const std::vector<FleetWorkItem>& items,
                     const std::function<bool(const CellKey&)>& has_entry);

  /// Next pending item in FIFO order for which `available(key)` holds
  /// (the server skips keys whose flock/lease is momentarily held by an
  /// ordinary claim). The item transitions to leased; pairing it with an
  /// actual lease is the server's job.
  std::optional<FleetWorkItem> fetch_next(
      const std::function<bool(const CellKey&)>& available);

  /// The fetched item's lease died without a report (expiry, disconnect,
  /// release). Requeues it as pending unless it is already done.
  void release_to_pending(const CellKey& key);

  /// Worker report for a leased (or already-done) item. kTrained/kServed
  /// mark it done; kFailed requeues it (attempts + 1) until kMaxAttempts,
  /// then parks it as done(failed). False when the key is unknown.
  bool report(const CellKey& key, Outcome outcome);

  /// A valid entry for `key` was just stored (PUT). If the queue tracks
  /// the key and it is not done yet, it becomes done(trained) — the
  /// store IS the proof of work, whether or not a report follows.
  void on_stored(const CellKey& key);

  struct Stats {
    std::uint64_t total = 0;
    std::uint64_t pending = 0;
    std::uint64_t leased = 0;
    std::uint64_t done = 0;
    std::uint64_t trained = 0;
    std::uint64_t served = 0;
    std::uint64_t failed = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Rewrites the snapshot through serialize::replace_file. Every durable
  /// transition calls it; the daemon calls it once more on graceful
  /// shutdown, belt-and-braces against a snapshot lost to a full disk
  /// earlier in the run. Best-effort: a failed write keeps the old file.
  void persist() const;

  /// pending + leased — the FETCH kMiss "outstanding" field.
  [[nodiscard]] std::uint64_t outstanding() const;
  [[nodiscard]] std::uint64_t total() const { return items_.size(); }

  /// Whether the item for `key` is currently leased (test introspection).
  [[nodiscard]] bool is_leased(const CellKey& key) const;

 private:
  struct Item {
    FleetWorkItem work;
    ItemState state = ItemState::kPending;
    Outcome outcome = Outcome::kTrained;  // meaningful once done
    std::uint32_t attempts = 0;
  };

  void push_pending(const CellKey& key);

  std::string snapshot_path_;
  std::unordered_map<CellKey, Item, CellKeyHash> items_;
  /// FIFO of pending keys. May hold stale entries (keys that moved on
  /// since being pushed); fetch_next skips them lazily.
  std::vector<CellKey> pending_fifo_;
  std::size_t fifo_head_ = 0;
};

}  // namespace nnr::sched

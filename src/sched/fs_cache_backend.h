// Filesystem cache backend: the persistent, content-addressed replicate
// store behind a shared directory (NNR_CACHE_DIR / --cache-dir).
//
// Stores one serialized core::RunResult per CellKey under the cache dir,
// so a cell that appears in several studies — fig1 and table2 share most
// of their V100 cells — trains once and is then served from disk
// everywhere, bit for bit. The bit-exactness contract makes this safe: a
// key collision-free lookup returns exactly the bytes training would have
// produced (enforced by tests/sched/scheduler_test.cc).
//
// Failure policy: see sched/cache_backend.h — a corrupted, truncated, or
// mismatched entry is counted and treated as a miss (the scheduler
// recomputes); a failed store is dropped silently. Loads/stores are
// thread-safe — the scheduler calls them from pool workers.
//
// One byte path: an entry file is exactly encode_run_result's bytes, stored
// by store_bytes through serialize::replace_file (temp file
// `<hex>.rr.tmp<pid>.<tid>`, then rename; store() encodes first) and read
// whole by serialize::read_file (load() decodes it, load_bytes() does
// not), so readers never observe a half-written entry.
//
// Cross-process coordination: every key has an advisory lockfile
// (`<hex>.lock`, flock-based — sched/file_lock.h). Claim states:
//
//   free   no process holds `<hex>.lock`; try_claim succeeds
//   held   the flock is held — by a pool worker here, a peer process, or
//          the nnr_cached daemon fronting this dir (leases hold the flock
//          too, so fs and remote clients interoperate on one dir)
//   dead   the holder exited or was SIGKILLed; the kernel dropped the
//          flock, so the key is immediately free — no stale-claim sweeper
//          is needed for liveness, gc() only tidies the leftover files
//
// A cache-wide lock (`gc.lock`) serializes eviction, GC, journal
// compaction, and the one-time manifest write.
//
// Size budget and eviction invariants (NNR_CACHE_BUDGET / --cache-budget,
// 0 = unlimited): a store that pushes the cache over budget evicts
// least-recently-used entries down to the budget. Recency comes from a
// persisted append-only access journal (`access.journal`,
// serialize/journal.h) updated on every hit and store; an entry whose key
// lock is currently held (in-flight: being trained, stored, or
// double-checked) is never evicted; eviction holds the key's lock while
// unlinking so a concurrent claimant can never watch its entry vanish
// mid-claim. `gc()` additionally sweeps orphaned temp files (dead writer
// pids, serialize::temp_writer_alive) and unheld lockfiles — exposed as
// `nnr_run --cache-gc`.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/trainer.h"
#include "sched/cache_backend.h"
#include "sched/cell_key.h"
#include "sched/file_lock.h"
#include "serialize/journal.h"

namespace nnr::sched {

class FsCacheBackend final : public CacheBackend {
 public:
  /// Cache rooted at `dir`; an empty dir disables the cache (every load
  /// misses without touching the stats, every store is a no-op).
  /// `budget_bytes` > 0 bounds the cache's total entry size via LRU
  /// eviction; <= 0 means unlimited.
  explicit FsCacheBackend(std::string dir, std::int64_t budget_bytes = 0);

  /// Cache configured from the environment: NNR_CACHE_DIR (unset disables)
  /// and NNR_CACHE_BUDGET (bytes; unset/invalid means unlimited).
  [[nodiscard]] static FsCacheBackend from_env();

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::int64_t budget() const noexcept { return budget_; }

  // CacheBackend interface (doc contracts in sched/cache_backend.h).
  [[nodiscard]] std::optional<core::RunResult> load(
      const CellKey& key, CacheStats* run = nullptr,
      bool count_miss = true) override;
  bool store(const CellKey& key, const core::RunResult& result,
             CacheStats* run = nullptr) override;
  [[nodiscard]] std::optional<CacheClaim> try_claim(
      const CellKey& key) override;
  [[nodiscard]] std::optional<CacheClaim> claim(const CellKey& key) override;
  GcStats gc() override;
  [[nodiscard]] CacheStats stats() const override;
  [[nodiscard]] std::string describe() const override {
    return "dir:" + dir_;
  }

  /// Raw entry payload for `key` — the exact file bytes, unvalidated (the
  /// daemon's GET path; the requesting client re-verifies checksum and
  /// embedded key). Counts a hit/miss and touches the journal, so remote
  /// reads advance LRU recency like local ones.
  [[nodiscard]] std::optional<std::string> load_bytes(const CellKey& key);

  /// Stores pre-validated raw bytes under `key` (the daemon's PUT path;
  /// store() encodes and lands here too): atomic replace_file, journal
  /// touch, stats, and the budget-eviction hook.
  bool store_bytes(const CellKey& key, std::string_view bytes,
                   CacheStats* run = nullptr);

  /// True when an entry file for `key` exists right now — a pure existence
  /// probe (the daemon's SUBMIT dedupe path). Unlike load/load_bytes it
  /// counts no hit/miss and touches no journal: a queue submission must not
  /// perturb the cache's stats or LRU recency.
  [[nodiscard]] bool has_entry(const CellKey& key) const;

  /// Entry count and total entry bytes by directory scan (the daemon's
  /// STAT path; excludes locks, journal, manifest, temp files).
  struct Usage {
    std::int64_t entries = 0;
    std::int64_t bytes = 0;
  };
  [[nodiscard]] Usage usage() const;

  /// Cache file path for `key` (exposed for tests and tooling).
  [[nodiscard]] std::string path_for(const CellKey& key) const;
  /// Advisory lockfile path for `key`.
  [[nodiscard]] std::string lock_path_for(const CellKey& key) const;

 private:
  /// The one read path behind load() and load_bytes(): the entry's bytes,
  /// counted as a hit. With `decoded` set they must also decode into it,
  /// or the entry counts as a corrupt miss; a missing entry is a plain miss
  /// (neither counted unless `count_miss`).
  [[nodiscard]] std::optional<std::string> read_entry(const CellKey& key,
                                                      CacheStats* run,
                                                      bool count_miss,
                                                      core::RunResult* decoded);
  /// Adds `delta` to the lifetime stats and, when non-null, to `run`.
  void count(const CacheStats& delta, CacheStats* run);
  void touch(const CellKey& key) const;  // journal an access (best-effort)
  void ensure_dir_and_manifest();
  void maybe_evict();
  void evict_to_budget_locked(std::int64_t budget, GcStats* gc_stats);
  void compact_journal_locked() const;
  [[nodiscard]] std::string gc_lock_path() const;

  std::string dir_;
  std::int64_t budget_ = 0;
  serialize::AccessJournal journal_;
  std::atomic<bool> manifest_checked_{false};
  /// Running estimate of total entry bytes for the budget pre-check (-1 =
  /// not yet seeded by a scan). Advanced by this process's stores, reset
  /// to the authoritative total on each eviction pass; peers track their
  /// own stores, so whoever crosses the budget runs the eviction.
  std::atomic<std::int64_t> approx_bytes_{-1};
  mutable std::mutex mu_;
  CacheStats stats_;
};

}  // namespace nnr::sched

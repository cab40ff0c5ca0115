// The sharded cache tier: a client-side router over 1 to N nnr_cached
// daemons ("shards"), each owning its own directory on its own port,
// selected by a comma-separated shard map —
//
//   NNR_CACHE_URL=tcp://h1:p1,tcp://h2:p2,...   (or repeated --cache-url)
//
// Routing is rendezvous (HRW) hashing: every (key, shard) pair gets a
// score = hrw_score(key, shard_tag(url)) and the key belongs to the shard
// with the highest score. The properties the test suite holds this to:
//
//   pure      the owner is a function of (key, shard tags) only — two
//             clients with the same shard map route identically, and a
//             permuted map changes nothing (ties break on the tag value,
//             never the slot index), so routing is replayable;
//   uniform   CellKey is already a uniform 128-bit content hash and
//             hrw_score mixes it against the tag, so keys spread evenly
//             (χ²-bounded over 10k sampled keys);
//   minimal   removing a shard moves ONLY that shard's keys (every
//             surviving shard keeps its exact score, so it keeps every key
//             it already won) — the reason HRW beats mod-N here.
//
// Health is not this layer's business. Each shard's RemoteCacheBackend
// owns the only health state in the client stack, its reconnect window,
// so every verb is shard(pick_shard(key)).verb(...):
//
//   up        the owner shard's client serves the operation;
//   down      that client degrades only its own key range (load -> miss,
//             store -> dropped, claims -> local no-op) and fails fast
//             inside its jittered reconnect window — the other shards stay
//             hot. When the window lapses the next operation reconnects.
//             A dropped connection arms no window, so a shard bounced
//             between two operations serves again by the second.
//
// Never re-route: a down shard's keys are trained locally, not diverted to
// a surviving shard — diverting would both blur the claim-exclusivity
// story (two daemons could grant the same key) and move keys that HRW
// promises stay put.
//
// A one-URL map is the same router over one shard: every cache URL map,
// 1 to N daemons, goes through make_sharded_cache_backend.
//
// Deployment guard: every daemon answers kShardInfo with a persistent
// per-directory uid; verify_disjoint() cross-checks the map and reports
// two shard slots backed by one directory (a misconfiguration that would
// silently halve the tier). Old daemons without the opcode are skipped —
// the check degrades, like everything else in the cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/cache_backend.h"
#include "sched/remote_cache_backend.h"

namespace nnr::sched {

// ---- Rendezvous routing, exposed as free functions so the property
// ---- tests (and shard-aware tools) can replay routing decisions.

/// A shard's stable identity tag: FNV-1a 64 of its URL string.
[[nodiscard]] std::uint64_t shard_tag(std::string_view url) noexcept;

/// The rendezvous score of (key, tag): a strong 64-bit mix, pure in its
/// inputs, uniform across keys for any fixed tag.
[[nodiscard]] std::uint64_t hrw_score(const CellKey& key,
                                      std::uint64_t tag) noexcept;

/// Index into `tags` of the winning shard: argmax of hrw_score, ties
/// broken toward the LARGER tag (an identity, not a slot position), so the
/// winner is invariant under permutation of the shard map. `tags` must be
/// non-empty.
[[nodiscard]] std::size_t pick_shard(const CellKey& key,
                                     const std::vector<std::uint64_t>& tags);

/// Splits a comma-separated shard map into its URLs. Empty tokens (from
/// stray/trailing commas) are dropped; no validation beyond that — the
/// RemoteCacheBackend constructor is the URL authority.
[[nodiscard]] std::vector<std::string> split_cache_urls(
    const std::string& list);

class ShardedCacheBackend final : public CacheBackend {
 public:
  /// `urls` must be non-empty, each tcp://host:port, and pairwise distinct
  /// (two slots with one URL would be one daemon scored twice). Throws
  /// std::invalid_argument otherwise. Does not connect — first use does.
  /// Every shard client gets `options`, with its jitter seed derived per
  /// slot from options.jitter_seed (0: a per-process seed).
  explicit ShardedCacheBackend(const std::vector<std::string>& urls,
                               RemoteCacheOptions options = {});

  // CacheBackend interface (doc contracts in sched/cache_backend.h).
  [[nodiscard]] std::optional<core::RunResult> load(
      const CellKey& key, CacheStats* run = nullptr,
      bool count_miss = true) override;
  bool store(const CellKey& key, const core::RunResult& result,
             CacheStats* run = nullptr) override;
  [[nodiscard]] std::optional<CacheClaim> try_claim(
      const CellKey& key) override;
  [[nodiscard]] std::optional<CacheClaim> claim(const CellKey& key) override;
  /// Sweeps every shard and sums the results; a down shard contributes
  /// nothing (its housekeeping waits for its revival).
  GcStats gc() override;
  /// Sum over the shard clients' lifetime counters (degraded misses
  /// included — each client counts its own).
  [[nodiscard]] CacheStats stats() const override;
  /// The comma-joined shard URLs: a one-URL map prints its bare URL.
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// The owner shard index for `key` — routing only, no health/IO.
  [[nodiscard]] std::size_t shard_for(const CellKey& key) const;
  /// The slot's URL (routing-relevant identity; also in describe()).
  [[nodiscard]] const std::string& shard_url(std::size_t index) const;
  /// Direct access to one shard's client, for tests and shard-aware tools.
  [[nodiscard]] RemoteCacheBackend& shard(std::size_t index);
  /// True while this shard's client fails fast (shard(i).retry_in_ms() > 0).
  [[nodiscard]] bool shard_marked_down(std::size_t index) const;

  /// Queries every shard's kShardInfo and cross-checks dir-disjointness.
  /// Returns a human-readable error naming the colliding URLs when two
  /// shard slots report the same directory uid; nullopt when the map
  /// checks out. Unreachable shards and pre-kShardInfo daemons are skipped
  /// (degrade, don't block the study).
  [[nodiscard]] std::optional<std::string> verify_disjoint();

 private:
  std::vector<std::string> urls_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::unique_ptr<RemoteCacheBackend>> shards_;
};

/// The router over `urls` (one or more), every shard client configured
/// from the environment (NNR_CACHE_LEASE_MS, NNR_CACHE_BACKOFF_MS etc.).
/// Throws std::invalid_argument on a malformed or duplicated url.
[[nodiscard]] std::unique_ptr<ShardedCacheBackend> make_sharded_cache_backend(
    const std::vector<std::string>& urls);

}  // namespace nnr::sched

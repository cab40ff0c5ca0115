// Remote cache backend: a TCP client of the `nnr_cached` daemon
// (sched/cache_server.h, tools/nnr_cached.cc), selected by
// NNR_CACHE_URL=tcp://host:port or `nnr_run --cache-url`.
//
// Claims are server-side leases with a TTL. Claim states, mirroring the fs
// backend's flock semantics (sched/fs_cache_backend.h):
//
//   free     no lease on the key; TRY_CLAIM answers GRANTED(lease_id)
//   held     a lease exists; TRY_CLAIM answers BUSY (the caller defers,
//            then polls via the blocking claim())
//   renewed  a background heartbeat thread re-arms every held lease at
//            ~TTL/3, so a live client can train one cell for hours
//   dead     the holder stopped heartbeating: lease expires after TTL; or
//            its TCP connection closed (process exit/SIGKILL sends FIN) and
//            the daemon releases immediately — the remote analogue of the
//            kernel dropping a dead process's flock
//
// Degrade-to-recompute: an unreachable, restarted, or misbehaving daemon
// must never wedge or corrupt a study, matching the corrupt-entry
// contract. While degraded: load() misses, store() fails silently,
// try_claim()/claim() grant a local no-op claim so the scheduler trains
// the cell itself instead of deferring forever. The client re-attempts the
// connection (at most once per reconnect_backoff_ms), so a bounced daemon
// turns back into hits. GET payloads are re-validated locally (checksum +
// embedded key); a corrupt payload counts corrupt+miss exactly like a
// corrupt local file.
//
// Thread safety: all operations share one socket serialized by a mutex —
// pool workers, the heartbeat thread, and claim releases interleave
// request-by-request. A CacheClaim must not outlive its backend.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/backoff.h"
#include "net/cache_protocol.h"
#include "net/socket.h"
#include "sched/cache_backend.h"
#include "sched/fleet_queue.h"

namespace nnr::sched {

struct RemoteCacheOptions {
  /// Lease TTL requested with every claim (server clamps to its bounds).
  std::uint32_t lease_ttl_ms = 10'000;
  /// Heartbeat renewal on/off. Off is for tests that exercise the
  /// lease-expiry path; production clients always heartbeat.
  bool heartbeat = true;
  /// Per-operation socket timeout.
  int io_timeout_ms = 5'000;
  /// A response that is merely late — the receive timed out on a frame
  /// boundary with nothing consumed — is re-awaited up to this many extra
  /// windows before the connection is declared dead. Distinct from a close
  /// or mid-frame timeout, which drop the connection immediately: a clean
  /// boundary timeout usually means the single-threaded daemon is busy
  /// (e.g. storing a large entry), not gone.
  int io_timeout_retries = 2;
  int connect_timeout_ms = 2'000;
  /// While degraded, at most one reconnect attempt per backoff window (the
  /// rest of the window every call fails fast and the study trains on).
  /// This is the FIRST window; each consecutive failure doubles it up to
  /// reconnect_backoff_max_ms, and every window is jittered +-50% so a
  /// fleet that lost its daemon together does not reconnect in lockstep.
  int reconnect_backoff_ms = 500;
  int reconnect_backoff_max_ms = 8'000;
  /// Seed of the jitter stream; 0 derives a per-process seed from the pid
  /// (the production default — it is what decorrelates a fleet). Tests pin
  /// a nonzero seed for a reproducible schedule.
  std::uint64_t jitter_seed = 0;
  /// A kThrottled answer is honored by sleeping its retry_after_ms hint
  /// (jittered, clamped to max_retry_after_ms) and resending, up to this
  /// many times per operation; after that the throttled status surfaces to
  /// the caller, which treats it like any other refusal (miss/failure).
  int throttle_retries = 3;
  int max_retry_after_ms = 1'000;
  /// Poll interval of the blocking claim() (the daemon has no server-side
  /// wait queue; polling keeps the one connection free for heartbeats).
  int claim_poll_ms = 50;
};

class RemoteCacheBackend final : public CacheBackend {
 public:
  /// `url` must be tcp://host:port. Throws std::invalid_argument on any
  /// other shape. Does not connect — the first operation does (and failure
  /// there just degrades).
  explicit RemoteCacheBackend(const std::string& url,
                              RemoteCacheOptions options = {});
  ~RemoteCacheBackend() override;

  /// Splits tcp://host:port. False on malformed input.
  static bool parse_url(const std::string& url, std::string* host,
                        std::uint16_t* port);

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
  [[nodiscard]] std::string describe() const override { return url_; }

  /// True when a round-trip (PING) succeeds right now; attempts a
  /// (re)connect. Used by tools for a startup health check.
  [[nodiscard]] bool ping();

  /// True when a TCP connection is currently established (no I/O — just a
  /// socket check). The fleet worker uses this after a failed REPORT to
  /// tell a daemon's answer (connection up: final) from a delivery failure
  /// (connection dropped: retry).
  [[nodiscard]] bool connected() const;

  /// Milliseconds left in the armed reconnect window: while it runs, every
  /// operation fails fast without touching the socket. 0 when the next
  /// operation would do I/O now (connected, or free to reconnect). This
  /// window is the client stack's one health state: the sharded router
  /// reports it per shard, and retry_with_window() waits it out.
  [[nodiscard]] std::int64_t retry_in_ms() const;

  /// Answer to kShardInfo (shard identity, for the sharded router's
  /// dir-disjointness check). nullopt: daemon unreachable, or an older
  /// daemon answering kError ("feature absent" — the caller skips the
  /// check rather than failing the study).
  struct ShardInfo {
    std::uint64_t instance_id = 0;
    std::uint64_t dir_uid = 0;
    std::uint64_t boot_epoch = 0;
  };
  [[nodiscard]] std::optional<ShardInfo> shard_info();

  // ---- Fleet work queue (SUBMIT/FETCH/REPORT/QUEUE_STAT) ----
  // Thin RPC wrappers over the queue opcodes; the coordinator/worker loops
  // that drive them live in sched/fleet_client.h. All return nullopt when
  // the daemon is unreachable OR answers kError (an older daemon without
  // the queue opcodes — "feature absent", per the versioning rules).

  struct FleetSubmitAck {
    std::uint64_t enqueued = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t already_done = 0;
  };
  [[nodiscard]] std::optional<FleetSubmitAck> fleet_submit(
      const std::vector<FleetWorkItem>& items);

  /// One FETCH. granted: `item` plus a heartbeat-renewed CacheClaim (the
  /// lease) and the raw lease_id for the later REPORT. Not granted: the
  /// queue-drain signal (outstanding == 0 with total > 0 means the wave is
  /// complete; outstanding > 0 means every pending key is momentarily
  /// held — sleep and re-fetch).
  struct FleetFetchResult {
    bool granted = false;
    FleetWorkItem item;                // when granted
    std::uint64_t lease_id = 0;        // when granted
    std::optional<CacheClaim> claim;   // when granted; releases on drop
    std::uint64_t outstanding = 0;     // when not granted
    std::uint64_t total = 0;           // when not granted
  };
  [[nodiscard]] std::optional<FleetFetchResult> fleet_fetch();

  struct FleetReportAck {
    std::uint64_t done = 0;
    std::uint64_t total = 0;
  };
  /// REPORT for a fetched item. nullopt also covers kGone (the lease
  /// expired or a PUT already settled the item) — benign either way, the
  /// daemon's queue state is the truth.
  std::optional<FleetReportAck> fleet_report(const CellKey& key,
                                             std::uint64_t lease_id,
                                             net::ReportOutcome outcome);

  [[nodiscard]] std::optional<FleetQueue::Stats> fleet_queue_stat();

  /// Test hook: drops the TCP connection without releasing anything —
  /// simulates a client that vanished (the daemon must release its leases
  /// on the disconnect). The next operation reconnects.
  void drop_connection_for_test();

  /// Test hook: how many TCP connect attempts this backend has made. The
  /// reconnect-backoff regression test asserts a down daemon costs one
  /// attempt per backoff window, not one per operation.
  [[nodiscard]] std::int64_t connect_attempts_for_test() const;

 private:
  friend struct RemoteClaimImpl;

  struct Rpc {
    net::Status status = net::Status::kError;
    std::string body;  // response body after the status byte
  };

  /// One request/response round-trip. nullopt = degraded (no connection,
  /// send/recv failure, kGoAway, or protocol violation — connection
  /// dropped). A kThrottled answer is retried internally (see
  /// RemoteCacheOptions::throttle_retries) before surfacing.
  std::optional<Rpc> rpc(net::Op op, std::string_view body);
  bool ensure_connected_locked();
  [[nodiscard]] std::int64_t retry_in_ms_locked() const;
  void drop_connection_locked();
  /// Records a kGoAway: drop the connection and arm a backoff window of
  /// at least the server's retry hint.
  void note_go_away_locked(std::uint32_t retry_after_ms);

  /// Best-effort RELEASE; deregisters the lease from the heartbeat set.
  void release_lease(const CellKey& key, std::uint64_t lease_id);
  void heartbeat_loop();
  [[nodiscard]] CacheClaim make_noop_claim();

  std::string url_;
  std::string host_;
  std::uint16_t port_ = 0;
  RemoteCacheOptions options_;

  mutable std::mutex io_mu_;  // socket + degraded state
  net::Socket sock_;
  std::int64_t connect_attempts_ = 0;
  /// Exponential reconnect schedule (guarded by io_mu_). retry_at_ is the
  /// end of the window armed by the LAST failure; in the past (or the
  /// epoch) = no wait pending.
  net::Backoff reconnect_backoff_;
  std::chrono::steady_clock::time_point retry_at_{};
  net::Jitter throttle_jitter_;

  /// One held lease: its key plus the TTL the server actually granted
  /// (post-clamp) — heartbeats pace against the granted TTL, never the
  /// requested one, so a server with tighter bounds cannot silently let
  /// a live client's lease expire between heartbeats.
  struct HeldLease {
    CellKey key;
    std::uint32_t granted_ttl_ms = 0;
  };

  std::mutex lease_mu_;  // held leases, renewed by the heartbeat thread
  std::unordered_map<std::uint64_t, HeldLease> leases_;

  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool stopping_ = false;
  std::thread hb_thread_;

  mutable std::mutex stats_mu_;
  CacheStats stats_;
};

/// The one retry loop of the client stack. Calls `attempt` until it
/// returns true, at most `attempts` times, sleeping
/// max(jitter.around(base_ms), client.retry_in_ms()) between calls. The
/// floor is what makes every retry a real attempt: a retry that woke
/// inside the client's armed reconnect window would fail fast without
/// touching the socket. True once an attempt succeeds.
bool retry_with_window(const RemoteCacheBackend& client,
                       std::int64_t attempts, std::int64_t base_ms,
                       net::Jitter& jitter,
                       const std::function<bool()>& attempt);

}  // namespace nnr::sched

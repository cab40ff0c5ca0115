#include "sched/fleet_client.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/trainer.h"
#include "net/backoff.h"
#include "sched/cell_key.h"
#include "sched/fleet_queue.h"
#include "sched/progress.h"
#include "sched/registry.h"
#include "sched/remote_cache_backend.h"
#include "sched/sharded_cache_backend.h"
#include "sched/study_plan.h"

namespace nnr::sched {

namespace {

void sleep_ms(std::int64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

net::Jitter make_jitter(std::uint64_t seed) {
  return net::Jitter(seed != 0 ? seed : net::default_jitter_seed());
}

/// SUBMIT attempts before the coordinator gives up: one dropped frame or a
/// daemon mid-restart must cost a retry, not the wave.
constexpr std::int64_t kSubmitAttempts = 11;

/// An unreachable queue daemon is waited out, never given up on.
constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();

/// The client whose reconnect window paces a retried PUT of `key`: the
/// owner shard's when `cache` is the router, else the queue client.
const RemoteCacheBackend& entry_client(RemoteCacheBackend& backend,
                                       CacheBackend* cache,
                                       const CellKey& key) {
  if (auto* router = dynamic_cast<ShardedCacheBackend*>(cache)) {
    return router->shard(router->shard_for(key));
  }
  return backend;
}

}  // namespace

std::optional<FleetSubmitSummary> fleet_submit_and_wait(
    RemoteCacheBackend& backend, const std::vector<std::string>& studies,
    const FleetSubmitOptions& options) {
  FleetSubmitSummary summary;
  std::vector<FleetWorkItem> items;
  // Studies share cells (fig1 and table2 share most V100 cells), so the
  // same key can enumerate twice; submit each once, under the first study
  // that names it. The daemon dedupes too — this just keeps the submitted
  // count honest.
  std::unordered_set<CellKey, CellKeyHash> seen;
  for (const std::string& name : studies) {
    const StudyDef* def = find_study(name);
    if (def == nullptr) {
      std::fprintf(stderr, "[fleet] unknown study '%s'\n", name.c_str());
      return std::nullopt;
    }
    const StudyPlan plan = def->make_plan();
    const auto& cells = plan.cells();
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const Cell& cell = cells[ci];
      if (!cell.cacheable()) {
        summary.uncacheable += cell.replicates;
        continue;
      }
      for (std::int64_t r = 0; r < cell.replicates; ++r) {
        const CellKey key = cell_key(cell, cell.ids_for(r));
        if (!seen.insert(key).second) continue;
        items.push_back(FleetWorkItem{key, name, static_cast<std::uint32_t>(ci),
                                      static_cast<std::uint32_t>(r)});
      }
    }
  }

  net::Jitter jitter = make_jitter(options.jitter_seed);
  std::optional<RemoteCacheBackend::FleetSubmitAck> ack;
  // SUBMIT is idempotent (the daemon dedupes), so retrying it is safe.
  retry_with_window(backend, kSubmitAttempts, options.poll_ms, jitter, [&] {
    ack = backend.fleet_submit(items);
    return ack.has_value();
  });
  if (!ack.has_value()) {
    std::fprintf(stderr,
                 "[fleet] submit failed: %s unreachable or predates the work "
                 "queue\n",
                 backend.describe().c_str());
    return std::nullopt;
  }
  summary.submitted = ack->enqueued;
  summary.duplicates = ack->duplicates;
  summary.already_done = ack->already_done;
  std::fprintf(stderr,
               "[fleet] submitted %llu cells (%llu duplicate, %llu already "
               "cached, %lld uncacheable skipped)\n",
               static_cast<unsigned long long>(ack->enqueued),
               static_cast<unsigned long long>(ack->duplicates),
               static_cast<unsigned long long>(ack->already_done),
               static_cast<long long>(summary.uncacheable));

  ProgressPrinter printer(/*min_interval_ms=*/1000);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto stats = backend.fleet_queue_stat();
    if (stats.has_value()) {
      const auto elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      const bool drained = stats->pending == 0 && stats->leased == 0;
      char line[192];
      std::snprintf(
          line, sizeof(line),
          "[fleet] %llu/%llu cells, trained=%llu, served=%llu, failed=%llu, "
          "eta=%s",
          static_cast<unsigned long long>(stats->done),
          static_cast<unsigned long long>(stats->total),
          static_cast<unsigned long long>(stats->trained),
          static_cast<unsigned long long>(stats->served),
          static_cast<unsigned long long>(stats->failed),
          format_eta(elapsed_ms, static_cast<std::int64_t>(stats->done),
                     static_cast<std::int64_t>(stats->total),
                     static_cast<std::int64_t>(stats->trained))
              .c_str());
      printer.emit(line, elapsed_ms, /*force=*/drained);
      if (drained) {
        summary.total = stats->total;
        summary.trained = stats->trained;
        summary.served = stats->served;
        summary.failed = stats->failed;
        return summary;
      }
    }
    // A failed poll is a daemon hiccup or restart — the queue snapshot
    // survives restarts, so just keep polling (jittered, so a herd of
    // coordinators spreads its stat load).
    sleep_ms(jitter.around(options.poll_ms));
  }
}

FleetWorkerSummary fleet_run_worker(RemoteCacheBackend& backend,
                                    const FleetWorkerOptions& options,
                                    CacheBackend* cache) {
  FleetWorkerSummary summary;
  // Queue RPCs stay on `backend`; entry traffic goes through the cache
  // tier (sharded or not). Same object in the single-daemon deployment.
  CacheBackend& entries = cache != nullptr ? *cache : backend;
  // Plans rebuilt once per study name; nullopt caches "unknown study" so a
  // skewed coordinator can't make us rebuild-and-fail per cell.
  std::unordered_map<std::string, std::optional<StudyPlan>> plans;
  const auto plan_for = [&](const std::string& name) -> const StudyPlan* {
    auto it = plans.find(name);
    if (it == plans.end()) {
      const StudyDef* def = find_study(name);
      it = plans
               .emplace(name, def != nullptr
                                  ? std::optional<StudyPlan>(def->make_plan())
                                  : std::nullopt)
               .first;
    }
    return it->second.has_value() ? &*it->second : nullptr;
  };

  net::Jitter jitter = make_jitter(options.jitter_seed);
  for (;;) {
    if (options.max_cells > 0 && summary.fetched >= options.max_cells) break;
    std::optional<RemoteCacheBackend::FleetFetchResult> fetch;
    retry_with_window(backend, kForever, options.poll_ms, jitter, [&] {
      fetch = backend.fleet_fetch();
      return fetch.has_value();
    });
    if (!fetch->granted) {
      // outstanding == 0 with total > 0: the wave is complete. total == 0:
      // nothing submitted yet — wait for a coordinator.
      if (fetch->outstanding == 0 && fetch->total > 0 &&
          options.exit_when_drained) {
        break;
      }
      sleep_ms(jitter.around(options.poll_ms));
      continue;
    }

    ++summary.fetched;
    const FleetWorkItem& work = fetch->item;
    const auto report = [&](net::ReportOutcome outcome) {
      // Under a sharded tier REPORT is the only settlement path (the PUT
      // went to the key's owner shard, not the queue daemon), so an
      // undelivered REPORT is retried. nullopt with the connection still
      // up is a daemon ANSWER (kGone: the lease expired or a PUT already
      // settled the item) — final, not retryable; a delivery failure
      // always drops the connection.
      const auto delivered = [&] {
        return backend.fleet_report(work.key, fetch->lease_id, outcome)
                   .has_value() ||
               backend.connected();
      };
      retry_with_window(backend, 1 + options.store_retries,
                        options.store_retry_ms, jitter, delivered);
    };

    const StudyPlan* plan = plan_for(work.study);
    const Cell* cell = nullptr;
    if (plan != nullptr && work.cell < plan->cells().size()) {
      cell = &plan->cells()[work.cell];
    }
    if (cell == nullptr ||
        static_cast<std::int64_t>(work.replicate) >= cell->replicates) {
      std::fprintf(stderr,
                   "[worker] %s cell=%u r=%u: no such cell here — version "
                   "skew with the coordinator?\n",
                   work.study.c_str(), work.cell, work.replicate);
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }
    const core::ReplicateIds ids =
        cell->ids_for(static_cast<std::int64_t>(work.replicate));
    if (cell_key(*cell, ids) != work.key) {
      // Same coordinates, different key: the environments disagree about
      // what this cell trains (NNR_QUICK/NNR_EPOCHS skew, usually).
      // Training it would PUT under a key nobody computed — fail it.
      std::fprintf(stderr,
                   "[worker] %s/%s r=%u: cell key mismatch — environment "
                   "skew with the coordinator (NNR_QUICK/NNR_EPOCHS?)\n",
                   work.study.c_str(), cell->id.c_str(), work.replicate);
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }

    if (entries.load(work.key).has_value()) {
      report(net::ReportOutcome::kServed);
      ++summary.served;
      continue;
    }

    core::RunResult result;
    bool trained_ok = true;
    try {
      result = cell->runner ? cell->runner(cell->job, ids)
                            : core::train_replicate(cell->job, ids);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[worker] %s/%s r=%u: training failed: %s\n",
                   work.study.c_str(), cell->id.c_str(), work.replicate,
                   e.what());
      trained_ok = false;
    }
    // The training is in hand; a failed PUT (daemon hiccup, dropped frame)
    // is re-sent, far cheaper than reporting kFailed and having another
    // worker retrain the whole cell.
    const bool stored =
        trained_ok &&
        retry_with_window(entry_client(backend, cache, work.key),
                          1 + options.store_retries, options.store_retry_ms,
                          jitter,
                          [&] { return entries.store(work.key, result); });
    if (!stored) {
      // A result we can't persist is indistinguishable from no result to
      // the rest of the fleet — let the queue retry it elsewhere.
      report(net::ReportOutcome::kFailed);
      ++summary.failed;
      continue;
    }
    report(net::ReportOutcome::kTrained);
    ++summary.trained;
    std::fprintf(stderr, "[worker] trained %s/%s r=%u\n", work.study.c_str(),
                 cell->id.c_str(), work.replicate);
  }
  return summary;
}

}  // namespace nnr::sched

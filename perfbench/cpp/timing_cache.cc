#include "timing_cache.h"

#include <utility>

namespace perfbench {

using nnr::sched::CacheClaim;
using nnr::sched::CacheStats;
using nnr::sched::CellKey;

TimingCache::TimingCache(nnr::sched::CacheBackend& inner, Tracer* tracer,
                         int parent)
    : inner_(inner), tracer_(tracer), parent_(parent) {}

void TimingCache::set_router(std::function<std::size_t(const CellKey&)> route,
                             std::size_t shards) {
  std::lock_guard<std::mutex> lock(mu_);
  route_ = std::move(route);
  summary_.shard_loads.assign(shards, 0);
}

void TimingCache::record(Verb& verb, const char* name, double start,
                         double end, const CellKey& key) {
  verb.latency_us.push_back((end - start) * 1e6);
  verb.busy_s += end - start;
  if (tracer_ != nullptr) tracer_->add(name, start, end, parent_, key.hex());
}

std::optional<nnr::core::RunResult> TimingCache::load(const CellKey& key,
                                                      CacheStats* run,
                                                      bool count_miss) {
  const double start = now_s();
  auto result = inner_.load(key, run, count_miss);
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  record(summary_.load, "sched.load", start, end, key);
  if (result.has_value()) ++summary_.load_hits;
  if (route_) ++summary_.shard_loads[route_(key)];
  last_load_end_[key] = end;
  return result;
}

bool TimingCache::store(const CellKey& key, const nnr::core::RunResult& result,
                        CacheStats* run) {
  const double start = now_s();
  const bool ok = inner_.store(key, result, run);
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  record(summary_.store, "sched.store", start, end, key);
  if (!ok) ++summary_.failed_stores;
  summary_.last_store_end = end;
  if (const auto it = last_load_end_.find(key); it != last_load_end_.end()) {
    summary_.train_ms.push_back((start - it->second) * 1e3);
    summary_.train_s += start - it->second;
    if (tracer_ != nullptr) {
      tracer_->add("core.replicate", it->second, start, parent_, key.hex());
    }
    last_load_end_.erase(it);
  }
  return ok;
}

std::optional<CacheClaim> TimingCache::try_claim(const CellKey& key) {
  const double start = now_s();
  auto claim = inner_.try_claim(key);
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  record(summary_.claim, "sched.claim", start, end, key);
  return claim;
}

std::optional<CacheClaim> TimingCache::claim(const CellKey& key) {
  const double start = now_s();
  auto claim = inner_.claim(key);
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  record(summary_.claim, "sched.claim", start, end, key);
  return claim;
}

TimingCache::Summary TimingCache::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_;
}

}  // namespace perfbench

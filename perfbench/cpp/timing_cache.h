// Timing decorator over sched::CacheBackend.
//
// The benchmark passes this as RunOptions::cache (and as the worker's entry
// cache in the fleet workload) to see the sched and net layers from outside:
// every verb is forwarded unchanged to the wrapped backend and timed, and the
// interval between a key's last load and its store is that replicate's
// training time. It never alters a result, a count or a claim — the
// self-test runs a study with and without it and compares digests and
// counters.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/cache_backend.h"
#include "trace.h"

namespace perfbench {

class TimingCache final : public nnr::sched::CacheBackend {
 public:
  /// `inner` must outlive this decorator and every claim it hands out.
  /// Spans go to `tracer` (may be null) under `parent`.
  explicit TimingCache(nnr::sched::CacheBackend& inner,
                       Tracer* tracer = nullptr, int parent = -1);

  /// Tallies every load against route(key) — the shard that owns it.
  void set_router(std::function<std::size_t(const nnr::sched::CellKey&)> route,
                  std::size_t shards);

  [[nodiscard]] std::optional<nnr::core::RunResult> load(
      const nnr::sched::CellKey& key, nnr::sched::CacheStats* run = nullptr,
      bool count_miss = true) override;
  bool store(const nnr::sched::CellKey& key,
             const nnr::core::RunResult& result,
             nnr::sched::CacheStats* run = nullptr) override;
  [[nodiscard]] std::optional<nnr::sched::CacheClaim> try_claim(
      const nnr::sched::CellKey& key) override;
  [[nodiscard]] std::optional<nnr::sched::CacheClaim> claim(
      const nnr::sched::CellKey& key) override;
  nnr::sched::GcStats gc() override { return inner_.gc(); }
  [[nodiscard]] nnr::sched::CacheStats stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }

  struct Verb {
    std::vector<double> latency_us;
    double busy_s = 0.0;
  };
  struct Summary {
    Verb load;
    Verb store;
    Verb claim;  // try_claim and blocking claim together
    std::int64_t load_hits = 0;
    std::int64_t failed_stores = 0;
    /// Per stored replicate: store start minus the key's last load end.
    std::vector<double> train_ms;
    double train_s = 0.0;
    double last_store_end = 0.0;  // now_s() clock; 0 when nothing stored
    std::vector<std::int64_t> shard_loads;
  };
  [[nodiscard]] Summary summary() const;

 private:
  void record(Verb& verb, const char* name, double start, double end,
              const nnr::sched::CellKey& key);

  nnr::sched::CacheBackend& inner_;
  Tracer* tracer_;
  int parent_;
  std::function<std::size_t(const nnr::sched::CellKey&)> route_;

  mutable std::mutex mu_;  // guards everything below
  Summary summary_;
  std::unordered_map<nnr::sched::CellKey, double, nnr::sched::CellKeyHash>
      last_load_end_;
};

}  // namespace perfbench

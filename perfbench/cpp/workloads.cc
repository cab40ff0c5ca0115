#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/study.h"
#include "core/table.h"
#include "runtime/thread_pool.h"
#include "sched/cell_key.h"
#include "sched/fleet_client.h"
#include "sched/fs_cache_backend.h"
#include "sched/registry.h"
#include "sched/remote_cache_backend.h"
#include "sched/scheduler.h"
#include "sched/sharded_cache_backend.h"
#include "serialize/run_result.h"
#include "daemon.h"
#include "probe.h"
#include "replay.h"
#include "stats.h"
#include "timing_cache.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nnr::core::RunResult;
using nnr::sched::BatchResult;
using nnr::sched::Cell;
using nnr::sched::CellKey;
using nnr::sched::StudyPlan;

/// Busy-thread budget of the cold and replay workloads (the pool width).
constexpr int kThreads = 4;
/// Host-speed probe time per unit of timed time (see probe.h).
constexpr double kProbeShare = 0.2;
/// Set-up repeats whose median is reported (plan building, daemon start).
constexpr int kSetupRepeats = 5;
/// Recorded step replays (and trainer timings) per (task, variant) in the
/// traced run.
constexpr int kReplaySteps = 2;

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// 64-bit FNV-1a, hex-printed: the digest of serialized results and tables.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Plans, tables and digests
// ---------------------------------------------------------------------------

std::vector<std::string> all_study_ids() {
  std::vector<std::string> ids;
  for (const nnr::sched::StudyDef& def : nnr::sched::study_registry()) {
    ids.push_back(def.id);
  }
  return ids;
}

struct PlanSet {
  std::vector<StudyPlan> plans;
  std::vector<std::string> titles;

  [[nodiscard]] std::vector<const StudyPlan*> ptrs() const {
    std::vector<const StudyPlan*> out;
    for (const StudyPlan& p : plans) out.push_back(&p);
    return out;
  }
  [[nodiscard]] std::int64_t replicates() const {
    std::int64_t n = 0;
    for (const StudyPlan& p : plans) n += p.total_replicates();
    return n;
  }
  [[nodiscard]] std::vector<const Cell*> cells() const {
    std::vector<const Cell*> out;
    for (const StudyPlan& p : plans) {
      for (const Cell& c : p.cells()) out.push_back(&c);
    }
    return out;
  }
};

/// The named studies' plans. `base_seed` overrides every cell's
/// TrainJob::base_seed; `det_only` keeps only the ALGO and CONTROL cells.
PlanSet make_plans(const std::vector<std::string>& studies,
                   std::optional<std::uint64_t> base_seed, bool det_only) {
  PlanSet set;
  set.plans.reserve(studies.size());
  for (const std::string& id : studies) {
    const nnr::sched::StudyDef* def = nnr::sched::find_study(id);
    if (def == nullptr) throw std::runtime_error("unknown study " + id);
    StudyPlan plan = def->make_plan();
    if (det_only) {
      std::erase_if(plan.cells(), [](const Cell& c) {
        return c.job.toggles_override.has_value() ||
               (c.job.variant != nnr::core::NoiseVariant::kAlgo &&
                c.job.variant != nnr::core::NoiseVariant::kControl);
      });
    }
    if (base_seed) {
      for (Cell& c : plan.cells()) c.job.base_seed = *base_seed;
    }
    set.titles.push_back("study " + plan.name() + " (" + def->description +
                         ")");
    set.plans.push_back(std::move(plan));
  }
  return set;
}

/// The report layer: each study's results reduced to its rendered table
/// (the rows and rendering nnr_run --study prints).
std::vector<std::string> render_tables(const PlanSet& set,
                                       const BatchResult& batch) {
  std::vector<std::string> out;
  for (std::size_t p = 0; p < set.plans.size(); ++p) {
    const StudyPlan& plan = set.plans[p];
    nnr::core::TextTable table({"Task", "Device", "Variant", "Mean acc %",
                                "STDDEV(Acc) %", "Churn %", "L2 Norm"});
    for (std::size_t c = 0; c < plan.cells().size(); ++c) {
      const Cell& cell = plan.cells()[c];
      const nnr::core::VariantSummary s =
          nnr::core::summarize(batch.studies[p].cells[c]);
      table.add_row({cell.task_name, cell.job.device.name,
                     std::string(nnr::core::variant_name(cell.job.variant)),
                     nnr::core::fmt_float(s.accuracy_pct(), 2),
                     nnr::core::fmt_float(s.accuracy_stddev_pct(), 3),
                     nnr::core::fmt_float(s.churn_pct(), 2),
                     nnr::core::fmt_float(s.mean_l2, 4)});
    }
    out.push_back(table.render(set.titles[p]) + "\n");
  }
  return out;
}

CellKey key_of(const Cell& cell, std::int64_t r) {
  return cell.cacheable() ? nnr::sched::cell_key(cell, cell.ids_for(r))
                          : CellKey{};
}

struct StudyDigest {
  std::string study;
  std::string cells;  // over every replicate's serialized RunResult
  std::string table;  // over the rendered table
  std::int64_t replicates = 0;
};

std::vector<StudyDigest> digest_studies(const PlanSet& set,
                                        const BatchResult& batch,
                                        const std::vector<std::string>& tables) {
  std::vector<StudyDigest> out;
  for (std::size_t p = 0; p < set.plans.size(); ++p) {
    const StudyPlan& plan = set.plans[p];
    std::uint64_t h = fnv1a("");
    for (std::size_t c = 0; c < plan.cells().size(); ++c) {
      const Cell& cell = plan.cells()[c];
      for (std::int64_t r = 0; r < cell.replicates; ++r) {
        const CellKey key = key_of(cell, r);
        h = fnv1a(nnr::serialize::encode_run_result(
                      batch.studies[p].cells[c][static_cast<std::size_t>(r)],
                      key.hi, key.lo),
                  h);
      }
    }
    out.push_back(StudyDigest{plan.name(), hex64(h), hex64(fnv1a(tables[p])),
                              plan.total_replicates()});
  }
  return out;
}

/// A batch with its rendered tables (and digests, where a reference needs
/// them).
struct BatchOutput {
  BatchResult batch;
  std::vector<std::string> tables;
  std::vector<StudyDigest> digests;
};

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Bit-for-bit equality of two results (floats compared by bit pattern).
bool same_result(const RunResult& a, const RunResult& b) {
  return same_bits(a.test_predictions, b.test_predictions) &&
         same_bits(a.test_confidences, b.test_confidences) &&
         same_bits(a.final_weights, b.final_weights) &&
         std::memcmp(&a.test_accuracy, &b.test_accuracy, sizeof(double)) == 0 &&
         std::memcmp(&a.final_train_loss, &b.final_train_loss,
                     sizeof(double)) == 0;
}

/// Recorded reference digests: "workload seed study cells table" lines.
using References = std::map<std::string, std::pair<std::string, std::string>>;

References load_references(const std::string& path) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, study, cells, table;
    if (fields >> workload >> seed >> study >> cells >> table) {
      refs[workload + " " + seed + " " + study] = {cells, table};
    }
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Checks and per-layer accumulation
// ---------------------------------------------------------------------------

class Checker {
 public:
  explicit Checker(Report& report) : report_(report) {}
  void attempt(std::int64_t n) { report_.attempted += n; }
  void fail(std::int64_t n, const std::string& what) {
    report_.failed += n;
    report_.correct = false;
    report_.problems.push_back(what);
  }
  /// Two batches of the same plans must agree study by study: tables
  /// byte for byte, every replicate bit for bit. A mismatch fails the
  /// study's replicates.
  void compare(const PlanSet& set, const BatchOutput& got,
               const BatchOutput& want, const std::string& what) {
    for (std::size_t p = 0; p < set.plans.size(); ++p) {
      bool same = got.tables[p] == want.tables[p];
      const auto& a = got.batch.studies[p].cells;
      const auto& b = want.batch.studies[p].cells;
      for (std::size_t c = 0; same && c < a.size(); ++c) {
        for (std::size_t r = 0; same && r < a[c].size(); ++r) {
          same = same_result(a[c][r], b[c][r]);
        }
      }
      if (!same) {
        fail(set.plans[p].total_replicates(),
             what + ": study " + set.plans[p].name() + " differs");
      }
    }
  }
  /// Checks against recorded references when (workload, seed) has any;
  /// false when none are recorded.
  bool compare_reference(const References& refs, const std::string& workload,
                         const std::string& seed,
                         const std::vector<StudyDigest>& got) {
    bool any = false;
    for (const StudyDigest& d : got) {
      const auto it = refs.find(workload + " " + seed + " " + d.study);
      if (it == refs.end()) continue;
      any = true;
      if (it->second.first != d.cells || it->second.second != d.table) {
        fail(d.replicates, "reference " + workload + " seed " + seed +
                               ": study " + d.study + " moved");
      }
    }
    return any;
  }

 private:
  Report& report_;
};

void merge(TimingCache::Summary& into, const TimingCache::Summary& s) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.load.latency_us, s.load.latency_us);
  cat(into.store.latency_us, s.store.latency_us);
  cat(into.claim.latency_us, s.claim.latency_us);
  into.load.busy_s += s.load.busy_s;
  into.store.busy_s += s.store.busy_s;
  into.claim.busy_s += s.claim.busy_s;
  into.load_hits += s.load_hits;
  into.failed_stores += s.failed_stores;
  cat(into.train_ms, s.train_ms);
  into.train_s += s.train_s;
  into.shard_loads.resize(std::max(into.shard_loads.size(), s.shard_loads.size()));
  for (std::size_t i = 0; i < s.shard_loads.size(); ++i) {
    into.shard_loads[i] += s.shard_loads[i];
  }
}

/// Per-layer data gathered over the traced iterations.
struct LayerAcc {
  std::int64_t iterations = 0;
  TimingCache::Summary cache;
  std::int64_t trained = 0, coalesced = 0, deferred = 0;
  double net_read = 0.0, net_written = 0.0;
  std::int64_t net_errors = 0;
  double cached_cpu_s = 0.0;
  double report_s = 0.0;
  double fleet_train_s = 0.0, fleet_wait_s = 0.0, fleet_idle = 0.0,
         fleet_drain_lag_s = 0.0;
  std::int64_t fetched = 0, served = 0, fleet_failed = 0;
};

struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// The part of wall_s the host's CPU speed sets; the rest is waiting
  /// (poll sleeps, daemon round trips) that takes the same time on any host.
  double compute_s = 0.0;
  std::int64_t replicates = 0;
};

/// The check for a seed without recorded references: two replicates of the
/// cheapest cells, picked by the seed, are trained again through
/// core::train_replicate, outside the scheduler, and must match the batch's
/// bytes.
void spot_check(const PlanSet& set, const BatchResult& batch,
                std::uint64_t seed, Checker& check) {
  std::vector<std::pair<std::size_t, std::size_t>> cheap;  // (plan, cell)
  double best = 0.0;
  for (std::size_t p = 0; p < set.plans.size(); ++p) {
    for (std::size_t c = 0; c < set.plans[p].cells().size(); ++c) {
      const auto& job = set.plans[p].cells()[c].job;
      const double cost = static_cast<double>(job.dataset->train.size()) *
                          static_cast<double>(job.recipe.epochs);
      if (cheap.empty() || cost < best) {
        cheap.clear();
        best = cost;
      }
      if (cost == best) cheap.emplace_back(p, c);
    }
  }
  for (int k = 0; k < 2; ++k) {
    const auto [p, c] =
        cheap[splitmix(seed + static_cast<std::uint64_t>(k)) % cheap.size()];
    const Cell& cell = set.plans[p].cells()[c];
    const std::int64_t r = static_cast<std::int64_t>(
        splitmix(seed ^ (0xC0FFEEull + static_cast<std::uint64_t>(k))) %
        static_cast<std::uint64_t>(cell.replicates));
    const RunResult fresh =
        cell.runner ? cell.runner(cell.job, cell.ids_for(r))
                    : nnr::core::train_replicate(cell.job, cell.ids_for(r));
    const CellKey key = key_of(cell, r);
    const RunResult& got = batch.studies[p].cells[c][static_cast<std::size_t>(r)];
    check.attempt(1);
    if (nnr::serialize::encode_run_result(fresh, key.hi, key.lo) !=
        nnr::serialize::encode_run_result(got, key.hi, key.lo)) {
      check.fail(1, "replicate " + cell.id + " r=" + std::to_string(r) +
                        " differs from a direct train_replicate");
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload(const Options& options, Report& report)
      : opts_(options), check_(report) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() = 0;
  [[nodiscard]] virtual double setup_s() const = 0;
  /// One timed iteration. `tracer`/`acc` are null in the untraced pass.
  virtual Iteration iterate(Tracer* tracer, LayerAcc* acc) = 0;
  /// Output checks that need the whole run (references, local reruns).
  virtual void verify() = 0;
  /// Cells this workload trains (the step replay covers their pairs).
  [[nodiscard]] virtual std::vector<const Cell*> trained_cells() const = 0;
  /// Plans whose cell keys and results feed the sched/serialize metrics.
  [[nodiscard]] virtual const PlanSet& plans() const = 0;
  [[nodiscard]] virtual const BatchResult& last_batch() const = 0;
  [[nodiscard]] virtual int busy_threads() const { return kThreads; }
  /// What --record writes to references.txt (empty: nothing to record).
  [[nodiscard]] virtual std::vector<StudyDigest> recorded() const {
    return {};
  }

 protected:
  [[nodiscard]] std::string seed_str() const {
    return std::to_string(opts_.seed);
  }
  [[nodiscard]] fs::path fresh_dir(const std::string& name) {
    const fs::path dir = fs::path(opts_.work_dir) /
                         (name + "-" + std::to_string(++dirs_));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
  }

  Options opts_;
  Checker check_;

 private:
  int dirs_ = 0;
};

/// paper_cold and det_cold: the batch trained from an empty directory cache.
class ColdWorkload final : public Workload {
 public:
  ColdWorkload(const Options& o, Report& r, std::vector<std::string> studies,
               bool det_only)
      : Workload(o, r), studies_(std::move(studies)), det_only_(det_only) {}

  void setup() override {
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = now_s();
      set_ = make_plans(studies_, opts_.seed, det_only_);
      samples.push_back(now_s() - t0);
    }
    setup_s_ = median(samples);
  }
  [[nodiscard]] double setup_s() const override { return setup_s_; }

  Iteration iterate(Tracer* tracer, LayerAcc* acc) override {
    const fs::path dir = fresh_dir("cold");
    Iteration it;
    BatchOutput out;
    {
      const ScopedSpan span(tracer, "workload.iteration", -1, opts_.workload);
      nnr::sched::FsCacheBackend fs_cache(dir.string());
      TimingCache timed(fs_cache, tracer, span.id());
      nnr::sched::RunOptions run;
      run.threads = kThreads;
      run.cache = tracer != nullptr
                      ? static_cast<nnr::sched::CacheBackend*>(&timed)
                      : &fs_cache;
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      out.batch = nnr::sched::run_batch(set_.ptrs(), run);
      const double t_report = now_s();
      out.tables = render_tables(set_, out.batch);
      const double report_s = now_s() - t_report;
      it.wall_s = now_s() - t0;
      it.cpu_s = process_cpu_s() - cpu0;
      it.compute_s = it.wall_s;
      it.replicates = set_.replicates();
      if (acc != nullptr) {
        acc->report_s += report_s;
        merge(acc->cache, timed.summary());
        acc->trained += out.batch.trained;
        acc->coalesced += out.batch.coalesced;
        acc->deferred += out.batch.deferred;
      }
    }
    fs::remove_all(dir);

    check_.attempt(it.replicates);
    const auto& c = out.batch.cache;
    if (c.corrupt > 0) check_.fail(c.corrupt, "corrupt cache entries");
    if (c.stores < out.batch.trained) {
      check_.fail(out.batch.trained - c.stores, "cache stores dropped");
    }
    if (first_) {
      check_.compare(set_, out, *first_, "rerun of the same plans");
    } else {
      out.digests = digest_studies(set_, out.batch, out.tables);
      first_ = std::move(out);
    }
    return it;
  }

  void verify() override {
    if (opts_.record) return;
    if (!check_.compare_reference(load_references(opts_.refs_path),
                                  opts_.workload, seed_str(),
                                  first_->digests)) {
      spot_check(set_, first_->batch, opts_.seed, check_);
    }
  }

  [[nodiscard]] std::vector<const Cell*> trained_cells() const override {
    return set_.cells();
  }
  [[nodiscard]] const PlanSet& plans() const override { return set_; }
  [[nodiscard]] const BatchResult& last_batch() const override {
    return first_->batch;
  }
  [[nodiscard]] std::vector<StudyDigest> recorded() const override {
    return first_->digests;
  }

 private:
  std::vector<std::string> studies_;
  bool det_only_;
  PlanSet set_;
  double setup_s_ = 0.0;
  std::optional<BatchOutput> first_;
};

/// warm_replay: the paper_cold batch against a filled 2-shard daemon map.
class WarmReplayWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    std::vector<double> plan_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = now_s();
      set_ = make_plans(all_study_ids(), opts_.seed, false);
      plan_s.push_back(now_s() - t0);
    }
    double daemon_s = 0.0;
    for (int s = 0; s < 2; ++s) {
      const fs::path dir = fresh_dir("shard");
      const double t0 = now_s();
      daemons_.push_back(std::make_unique<Daemon>(opts_.cached_bin, dir.string()));
      daemon_s += now_s() - t0;
      urls_.push_back(daemons_.back()->url());
    }
    const double t0 = now_s();
    auto sharded = nnr::sched::make_sharded_cache_backend(urls_);
    if (const auto bad = sharded->verify_disjoint()) {
      throw std::runtime_error("shard map: " + *bad);
    }
    nnr::sched::RunOptions run;
    run.threads = kThreads;
    run.cache = sharded.get();
    fill_.batch = nnr::sched::run_batch(set_.ptrs(), run);
    fill_.tables = render_tables(set_, fill_.batch);
    complete_fill();
    setup_s_ = median(plan_s) + daemon_s + (now_s() - t0);
    fill_.digests = digest_studies(set_, fill_.batch, fill_.tables);
  }
  [[nodiscard]] double setup_s() const override { return setup_s_; }

  /// Set-up must leave every entry in the map. A store the client saw fail
  /// under load (a dropped connection, say) may or may not have landed, so
  /// a fresh client reads every key back and re-sends any that is absent.
  void complete_fill() {
    auto sharded = nnr::sched::make_sharded_cache_backend(urls_);
    std::int64_t resent = 0;
    for (std::size_t p = 0; p < set_.plans.size(); ++p) {
      const auto& cells = set_.plans[p].cells();
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::int64_t r = 0; r < cells[c].replicates; ++r) {
          const CellKey key = key_of(cells[c], r);
          if (sharded->load(key).has_value()) continue;
          ++resent;
          check_.attempt(1);
          if (!sharded->store(
                  key, fill_.batch.studies[p].cells[c][static_cast<std::size_t>(r)])) {
            check_.fail(1, "fill: entry missing and its store failed again");
          }
        }
      }
    }
    if (resent > 0) {
      std::fprintf(stderr, "[perfbench] fill: re-sent %lld missing entries\n",
                   static_cast<long long>(resent));
    }
  }

  Iteration iterate(Tracer* tracer, LayerAcc* acc) override {
    double daemon_cpu0 = 0.0;
    for (const auto& d : daemons_) daemon_cpu0 += d->cpu_s();
    Iteration it;
    const ScopedSpan span(tracer, "workload.iteration", -1, opts_.workload);
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    // A fresh client per replay, as a user's rerun would connect.
    auto sharded = nnr::sched::make_sharded_cache_backend(urls_);
    TimingCache timed(*sharded, tracer, span.id());
    if (tracer != nullptr) {
      nnr::sched::ShardedCacheBackend* s = sharded.get();
      timed.set_router([s](const CellKey& k) { return s->shard_for(k); },
                       s->shard_count());
    }
    nnr::sched::RunOptions run;
    run.threads = kThreads;
    run.cache = tracer != nullptr ? static_cast<nnr::sched::CacheBackend*>(&timed)
                                  : sharded.get();
    last_.batch = nnr::sched::run_batch(set_.ptrs(), run);
    const double t_report = now_s();
    last_.tables = render_tables(set_, last_.batch);
    const double report_s = now_s() - t_report;
    it.wall_s = now_s() - t0;
    it.cpu_s = process_cpu_s() - cpu0;
    // Mostly waits on the daemons: only the CPU time spread over the pool
    // counts as compute, as in a fleet wave.
    it.compute_s = std::min(it.wall_s, it.cpu_s / kThreads);
    it.replicates = set_.replicates();
    double daemon_cpu1 = 0.0;
    for (const auto& d : daemons_) daemon_cpu1 += d->cpu_s();
    const auto& c = last_.batch.cache;
    std::int64_t down = 0;
    for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
      down += sharded->shard_marked_down(s) ? 1 : 0;
    }
    if (acc != nullptr) {
      acc->report_s += report_s;
      merge(acc->cache, timed.summary());
      acc->trained += last_.batch.trained;
      acc->coalesced += last_.batch.coalesced;
      acc->deferred += last_.batch.deferred;
      acc->net_read += static_cast<double>(c.bytes_read);
      acc->net_written += static_cast<double>(c.bytes_written);
      acc->net_errors += c.corrupt + c.misses + down;
      acc->cached_cpu_s += daemon_cpu1 - daemon_cpu0;
    }
    check_.attempt(it.replicates);
    if (last_.batch.trained != 0) {
      check_.fail(last_.batch.trained, "replay trained replicates");
    }
    if (c.corrupt + c.misses + down > 0) {
      check_.fail(c.corrupt + c.misses + down,
                  "replay: corrupt, missing or down-shard cache operations");
    }
    check_.compare(set_, last_, fill_, "replay vs cold fill");
    return it;
  }

  void verify() override {
    if (opts_.record) return;
    // The fill is the paper_cold batch at this seed.
    if (!check_.compare_reference(load_references(opts_.refs_path),
                                  "paper_cold", seed_str(), fill_.digests)) {
      spot_check(set_, fill_.batch, opts_.seed, check_);
    }
  }

  [[nodiscard]] std::vector<const Cell*> trained_cells() const override {
    return {};
  }
  [[nodiscard]] const PlanSet& plans() const override { return set_; }
  [[nodiscard]] const BatchResult& last_batch() const override {
    return last_.batch;
  }

 private:
  PlanSet set_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
  std::vector<std::string> urls_;
  double setup_s_ = 0.0;
  BatchOutput fill_;
  BatchOutput last_;
};

/// fleet: fig2 drained by a coordinator and two workers, wave by wave.
class FleetWorkload final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kWorkers = 2;

  void setup() override {
    // The local run the waves are checked against; its plan building is
    // the workload's dataset synthesis.
    std::vector<double> plan_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const double t0 = now_s();
      local_ = make_plans({"fig2"}, std::nullopt, false);
      plan_s.push_back(now_s() - t0);
    }
    plan_s_ = median(plan_s);
    // Workers train single-threaded, as one-thread worker processes do.
    nnr::runtime::ThreadPool::set_global_threads(1);
  }
  /// Plan building plus the median start of a wave's daemon.
  [[nodiscard]] double setup_s() const override {
    return plan_s_ + median(daemon_s_);
  }
  [[nodiscard]] int busy_threads() const override { return kWorkers; }

  Iteration iterate(Tracer* tracer, LayerAcc* acc) override {
    const int wave = waves_++;
    // Set-up of this wave (untimed): a daemon on an empty directory.
    const fs::path dir = fresh_dir("fleet");
    double t_setup = now_s();
    Daemon daemon(opts_.cached_bin, dir.string());
    nnr::sched::RemoteCacheBackend coordinator(daemon.url());
    if (!coordinator.ping()) throw std::runtime_error("daemon unreachable");
    daemon_s_.push_back(now_s() - t_setup);
    const double daemon_cpu0 = daemon.cpu_s();

    struct WorkerOut {
      nnr::sched::FleetWorkerSummary summary;
      TimingCache::Summary cache;
      double end = 0.0;
      std::string error;
    };
    std::vector<WorkerOut> outs(kWorkers);
    const int wave_span =
        tracer != nullptr ? tracer->open("fleet.wave", -1, "wave" + std::to_string(wave))
                          : -1;
    Iteration it;
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    std::vector<std::thread> workers;
    struct Joiner {
      std::vector<std::thread>& threads;
      ~Joiner() {
        for (std::thread& t : threads) {
          if (t.joinable()) t.join();
        }
      }
    } joiner{workers};
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        WorkerOut& out = outs[static_cast<std::size_t>(w)];
        try {
          nnr::sched::RemoteCacheBackend backend(daemon.url());
          TimingCache timed(backend, tracer, wave_span);
          nnr::sched::FleetWorkerOptions options;
          options.jitter_seed = jitter_seed(wave, w + 1);
          out.summary = nnr::sched::fleet_run_worker(
              backend, options, tracer != nullptr ? &timed : nullptr);
          out.cache = timed.summary();
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        out.end = now_s();
      });
    }
    nnr::sched::FleetSubmitOptions submit;
    submit.jitter_seed = jitter_seed(wave, 0);
    const auto summary =
        nnr::sched::fleet_submit_and_wait(coordinator, {"fig2"}, submit);
    const double drained = now_s();
    // The coordinator's warm local replay, as nnr_run --submit does.
    PlanSet set = make_plans({"fig2"}, std::nullopt, false);
    TimingCache timed(coordinator, tracer, wave_span);
    nnr::sched::RunOptions run;
    run.cache = tracer != nullptr ? static_cast<nnr::sched::CacheBackend*>(&timed)
                                  : &coordinator;
    BatchOutput replay;
    replay.batch = nnr::sched::run_batch(set.ptrs(), run);
    const double t_report = now_s();
    replay.tables = render_tables(set, replay.batch);
    const double report_s = now_s() - t_report;
    for (std::thread& t : workers) t.join();
    it.wall_s = now_s() - t0;
    it.cpu_s = process_cpu_s() - cpu0;
    // The workers train side by side; their CPU time spread over them is
    // the wave's compute, the rest of its wall time is poll waits.
    it.compute_s = std::min(it.wall_s, it.cpu_s / kWorkers);
    it.replicates = set.replicates();
    if (tracer != nullptr) tracer->close(wave_span);
    const double daemon_cpu = daemon.cpu_s() - daemon_cpu0;
    daemon.stop();
    fs::remove_all(dir);

    check_.attempt(it.replicates);
    std::int64_t fetched = 0, served = 0, failed = 0;
    double last_store = 0.0;
    for (const WorkerOut& out : outs) {
      if (!out.error.empty()) check_.fail(1, "worker threw: " + out.error);
      fetched += out.summary.fetched;
      served += out.summary.served;
      failed += out.summary.failed;
      last_store = std::max(last_store, out.cache.last_store_end);
    }
    if (!summary.has_value()) {
      check_.fail(it.replicates, "fleet submit failed");
    } else {
      if (summary->failed > 0) {
        check_.fail(static_cast<std::int64_t>(summary->failed),
                    "fleet cells parked as failed");
      }
      const auto settled =
          static_cast<std::int64_t>(summary->trained + summary->served);
      if (settled != it.replicates) {
        check_.fail(std::max<std::int64_t>(1, it.replicates - settled),
                    "fleet: trained + served != cells");
      }
    }
    if (replay.batch.trained != 0) {
      check_.fail(replay.batch.trained, "coordinator replay trained cells");
    }
    if (acc != nullptr) {
      acc->report_s += report_s;
      merge(acc->cache, timed.summary());
      acc->trained += replay.batch.trained;
      acc->coalesced += replay.batch.coalesced;
      acc->deferred += replay.batch.deferred;
      acc->cached_cpu_s += daemon_cpu;
      double worker_wait = 0.0;
      for (const WorkerOut& out : outs) {
        merge(acc->cache, out.cache);
        acc->fleet_train_s += out.cache.train_s;
        worker_wait += (out.end - t0) - out.cache.train_s;
      }
      acc->fleet_wait_s += worker_wait;
      acc->fleet_idle += worker_wait / (kWorkers * it.wall_s);
      acc->fleet_drain_lag_s += last_store > 0.0 ? drained - last_store : 0.0;
      acc->fetched += fetched;
      acc->served += served;
      acc->fleet_failed += failed;
      nnr::sched::CacheStats st = coordinator.stats();
      acc->net_read += static_cast<double>(st.bytes_read);
      acc->net_written += static_cast<double>(st.bytes_written);
      acc->net_errors += st.corrupt + (coordinator.connected() ? 0 : 1);
      for (const WorkerOut& out : outs) acc->net_errors += out.cache.failed_stores;
      // A one-URL map: every load went to its one shard.
      acc->cache.shard_loads = {
          static_cast<std::int64_t>(acc->cache.load.latency_us.size())};
    }
    waves_out_.push_back(std::move(replay));
    return it;
  }

  void verify() override {
    // The tables must match a local (cacheless) run of the same study.
    nnr::runtime::ThreadPool::set_global_threads(kThreads);
    nnr::sched::RunOptions run;
    run.threads = kThreads;
    BatchOutput out;
    out.batch = nnr::sched::run_batch(local_.ptrs(), run);
    out.tables = render_tables(local_, out.batch);
    for (const BatchOutput& wave : waves_out_) {
      check_.compare(local_, wave, out, "fleet wave vs local run");
    }
    local_digests_ = digest_studies(local_, out.batch, out.tables);
    if (!opts_.record) {
      check_.compare_reference(load_references(opts_.refs_path), "fleet", "*",
                               local_digests_);
    }
  }

  [[nodiscard]] std::vector<const Cell*> trained_cells() const override {
    return local_.cells();
  }
  [[nodiscard]] const PlanSet& plans() const override { return local_; }
  [[nodiscard]] const BatchResult& last_batch() const override {
    return waves_out_.back().batch;
  }
  [[nodiscard]] std::vector<StudyDigest> recorded() const override {
    return local_digests_;
  }

 private:
  [[nodiscard]] std::uint64_t jitter_seed(int wave, int role) const {
    const std::uint64_t s = splitmix(opts_.seed ^ splitmix(
        (static_cast<std::uint64_t>(wave) << 8) | static_cast<std::uint64_t>(role)));
    return s != 0 ? s : 1;  // 0 would select the pid-derived default
  }

  int waves_ = 0;
  PlanSet local_;
  double plan_s_ = 0.0;
  std::vector<double> daemon_s_;
  std::vector<BatchOutput> waves_out_;
  std::vector<StudyDigest> local_digests_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Per-iteration times as measured (`wall`, `cpu`) and rescaled to the
/// reference host (`ref_wall`, `ref_cpu`; see probe.h), and the probe rounds.
struct LoopResult {
  std::vector<double> wall, cpu, ref_wall, ref_cpu, probes;
  std::int64_t replicates = 0;
  double total_wall = 0.0;
  double total_ref_wall = 0.0;
};

/// Iterates until `seconds` of timed work have accumulated (at least once).
/// The host-speed probe runs before the first iteration (for kProbeShare of
/// `seconds`) and after each one (for kProbeShare of its wall time); the
/// run's iterations are rescaled by the median of all its probe rounds.
LoopResult timed_loop(Workload& w, double seconds, Tracer* tracer,
                      LayerAcc* acc) {
  LoopResult out;
  std::vector<double> compute;
  probe(w.busy_threads(), kProbeShare * seconds, out.probes);
  do {
    const Iteration it = w.iterate(tracer, acc);
    const std::size_t before = out.probes.size();
    probe(w.busy_threads(), kProbeShare * it.wall_s, out.probes);
    std::fprintf(stderr,
                 "[perfbench] iteration %zu%s: wall %.3f s, cpu %.3f s, probe "
                 "%.4f s\n",
                 out.wall.size(), tracer != nullptr ? " (traced)" : "", it.wall_s,
                 it.cpu_s,
                 median({out.probes.begin() + static_cast<std::ptrdiff_t>(before),
                         out.probes.end()}));
    out.wall.push_back(it.wall_s);
    out.cpu.push_back(it.cpu_s);
    compute.push_back(it.compute_s);
    out.replicates += it.replicates;
    out.total_wall += it.wall_s;
    if (acc != nullptr) ++acc->iterations;
  } while (out.total_wall < seconds);
  const double scale = kProbeRefS / median(out.probes);
  for (std::size_t i = 0; i < out.wall.size(); ++i) {
    out.ref_wall.push_back(out.wall[i] - compute[i] * (1.0 - scale));
    out.ref_cpu.push_back(out.cpu[i] * scale);
    out.total_ref_wall += out.ref_wall.back();
  }
  return out;
}

void add_latency(std::vector<Metric>& m, const std::string& verb,
                 const TimingCache::Verb& v, double per_iter) {
  double used = 0.0;
  const double tail99 = tail(v.latency_us, 99.0, &used);
  std::fprintf(stderr, "[perfbench] sched.%s: %zu samples, p99_us reports p%g\n",
               verb.c_str(), v.latency_us.size(), used);
  m.push_back({"sched." + verb + ".calls",
               static_cast<double>(v.latency_us.size()) * per_iter, "count"});
  m.push_back({"sched." + verb + ".p50_us", percentile(v.latency_us, 50.0), "us"});
  m.push_back({"sched." + verb + ".p99_us", tail99, "us"});
  m.push_back({"sched." + verb + ".busy_s", v.busy_s * per_iter, "s"});
}

std::vector<Metric> layer_metrics(Workload& w, const LayerAcc& acc,
                                  const LoopResult& traced,
                                  const LoopResult& untraced, Tracer& tracer,
                                  const ReplayTotals& replay) {
  std::vector<Metric> m;
  const auto totals = tracer.totals();
  const auto self = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto count = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto work = [&](const std::string& name) {
    const auto it = replay.work.find(name);
    return it == replay.work.end() ? 0.0 : it->second;
  };
  const double steps = kReplaySteps;

  // tensor: one kernel replay per (task, variant).
  for (const char* order : {"shuffled", "tree", "seq"}) {
    const std::string name = std::string("tensor.gemm.") + order;
    const double s = self(name);
    m.push_back({name + ".self_s", s, "s"});
    m.push_back({name + ".calls", count(name), "count"});
    m.push_back({name + ".gflops", s > 0.0 ? work(name) / s * 1e-9 : 0.0,
                 "GFLOP/s"});
  }
  for (const char* kernel : {"im2col", "col2im", "transpose"}) {
    const std::string name = std::string("tensor.") + kernel;
    m.push_back({name + ".self_s", self(name), "s"});
    m.push_back({name + ".bytes", work(name), "B_computed"});
  }
  // nn / opt / data / core: one replayed step per (task, variant).
  for (const char* kind : {"conv2d", "depthwise", "dense", "batchnorm",
                           "groupnorm", "residual_block", "pool", "act",
                           "dropout"}) {
    const std::string name = std::string("nn.") + kind;
    m.push_back({name + ".fwd_s", self(name + ".fwd") / steps, "s"});
    m.push_back({name + ".bwd_s", self(name + ".bwd") / steps, "s"});
  }
  m.push_back({"nn.loss_s", self("nn.loss") / steps, "s"});
  m.push_back({"opt.step_s", self("opt.step") / steps, "s"});
  m.push_back({"data.batch_s", self("data.batch") / steps, "s"});
  m.push_back({"core.step_s", replay.core_step_s, "s"});
  m.push_back({"core.evaluate_s", replay.evaluate_s, "s"});
  {
    double used = 0.0;
    const double p90 = tail(acc.cache.train_ms, 90.0, &used);
    std::fprintf(stderr,
                 "[perfbench] core.replicate: %zu samples, p90_ms reports p%g\n",
                 acc.cache.train_ms.size(), used);
    m.push_back({"core.replicate_p50_ms", percentile(acc.cache.train_ms, 50.0), "ms"});
    m.push_back({"core.replicate_p90_ms", p90, "ms"});
  }

  // sched: the timing decorator, per iteration.
  const double per_iter = 1.0 / static_cast<double>(std::max<std::int64_t>(1, acc.iterations));
  add_latency(m, "load", acc.cache.load, per_iter);
  add_latency(m, "store", acc.cache.store, per_iter);
  add_latency(m, "claim", acc.cache.claim, per_iter);
  const double loads = static_cast<double>(acc.cache.load.latency_us.size());
  m.push_back({"sched.hit_ratio",
               loads > 0 ? static_cast<double>(acc.cache.load_hits) / loads : 0.0,
               "frac"});
  m.push_back({"sched.trained", static_cast<double>(acc.trained) * per_iter, "count"});
  m.push_back({"sched.coalesced", static_cast<double>(acc.coalesced) * per_iter, "count"});
  m.push_back({"sched.deferred", static_cast<double>(acc.deferred) * per_iter, "count"});
  {
    // Key derivation for every cacheable replicate of the plans.
    std::int64_t keys = 0;
    const double t0 = now_s();
    for (const Cell* cell : w.plans().cells()) {
      if (!cell->cacheable()) continue;
      for (std::int64_t r = 0; r < cell->replicates; ++r, ++keys) {
        (void)nnr::sched::cell_key(*cell, cell->ids_for(r));
      }
    }
    m.push_back({"sched.cell_key_us",
                 keys > 0 ? (now_s() - t0) * 1e6 / static_cast<double>(keys) : 0.0,
                 "us"});
  }

  // serialize: encode / validate / decode every result of the last batch.
  {
    double enc = 0.0, val = 0.0, dec = 0.0, bytes = 0.0;
    std::int64_t n = 0;
    const PlanSet& set = w.plans();
    const BatchResult& batch = w.last_batch();
    for (std::size_t p = 0; p < set.plans.size(); ++p) {
      const auto& cells = set.plans[p].cells();
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (std::int64_t r = 0; r < cells[c].replicates; ++r, ++n) {
          const CellKey key = key_of(cells[c], r);
          const RunResult& result =
              batch.studies[p].cells[c][static_cast<std::size_t>(r)];
          double t0 = now_s();
          const std::string b =
              nnr::serialize::encode_run_result(result, key.hi, key.lo);
          double t1 = now_s();
          const bool ok =
              nnr::serialize::validate_run_result_bytes(b, key.hi, key.lo);
          double t2 = now_s();
          const RunResult back =
              nnr::serialize::decode_run_result(b, key.hi, key.lo, "perfbench");
          double t3 = now_s();
          (void)ok;
          (void)back;
          enc += t1 - t0;
          val += t2 - t1;
          dec += t3 - t2;
          bytes += static_cast<double>(b.size());
        }
      }
    }
    const double d = static_cast<double>(std::max<std::int64_t>(1, n));
    m.push_back({"serialize.encode_us", enc * 1e6 / d, "us"});
    m.push_back({"serialize.decode_us", dec * 1e6 / d, "us"});
    m.push_back({"serialize.validate_us", val * 1e6 / d, "us"});
    m.push_back({"serialize.entry_bytes", bytes / d, "B"});
  }

  // net / cached / report.
  m.push_back({"net.bytes_read", acc.net_read * per_iter, "B"});
  m.push_back({"net.bytes_written", acc.net_written * per_iter, "B"});
  m.push_back({"net.errors", static_cast<double>(acc.net_errors), "count"});
  {
    const auto& shards = acc.cache.shard_loads;
    double skew = 0.0;
    if (!shards.empty()) {
      double sum = 0.0, mx = 0.0;
      for (const std::int64_t s : shards) {
        sum += static_cast<double>(s);
        mx = std::max(mx, static_cast<double>(s));
      }
      skew = sum > 0 ? mx / (sum / static_cast<double>(shards.size())) : 0.0;
    }
    m.push_back({"net.shard_skew", skew, "ratio"});
  }
  m.push_back({"cached.cpu_s", acc.cached_cpu_s * per_iter, "s"});
  m.push_back({"report.reduce_s", acc.report_s * per_iter, "s"});

  // fleet.
  m.push_back({"fleet.train_s", acc.fleet_train_s * per_iter, "s"});
  m.push_back({"fleet.wait_s", acc.fleet_wait_s * per_iter, "s"});
  m.push_back({"fleet.idle_frac", acc.fleet_idle * per_iter, "frac"});
  m.push_back({"fleet.drain_lag_s", acc.fleet_drain_lag_s * per_iter, "s"});
  m.push_back({"fleet.fetched", static_cast<double>(acc.fetched) * per_iter, "count"});
  m.push_back({"fleet.served", static_cast<double>(acc.served) * per_iter, "count"});
  m.push_back({"fleet.failed", static_cast<double>(acc.fleet_failed) * per_iter, "count"});

  // runtime / trace.
  const double wall = median(traced.wall);
  m.push_back({"runtime.busy_frac",
               median(traced.cpu) / (wall * w.busy_threads()), "frac"});
  // Rescaled walls, so a change of host speed between the passes cancels.
  const double base = median(untraced.ref_wall);
  const double traced_wall = median(traced.ref_wall);
  m.push_back({"trace.overhead_frac",
               base > 0 ? (traced_wall - base) / base : 0.0, "frac"});
  m.push_back({"trace.coverage_frac",
               replay.core_step_s > 0 ? replay.replay_step_s / replay.core_step_s
                                      : 0.0,
               "frac"});
  return m;
}

std::unique_ptr<Workload> make_workload(const Options& o, Report& r) {
  if (o.workload == "paper_cold") {
    return std::make_unique<ColdWorkload>(o, r, all_study_ids(), false);
  }
  if (o.workload == "det_cold") {
    return std::make_unique<ColdWorkload>(o, r, std::vector<std::string>{"table2"},
                                          true);
  }
  if (o.workload == "warm_replay") {
    return std::make_unique<WarmReplayWorkload>(o, r);
  }
  if (o.workload == "fleet") return std::make_unique<FleetWorkload>(o, r);
  throw std::runtime_error("unknown workload: " + o.workload);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_cold", "det_cold",
                                                 "warm_replay", "fleet"};
  return names;
}

Report run_workload(const Options& options) {
  Report report;
  nnr::runtime::ThreadPool::set_global_threads(kThreads);
  fs::create_directories(options.work_dir);
  std::unique_ptr<Workload> w = make_workload(options, report);

  w->setup();
  const LoopResult untraced = timed_loop(*w, options.seconds, nullptr, nullptr);
  const double rss = peak_rss_mb();

  if (!options.trace) {
    w->verify();
    report.metrics = {
        {"setup_s", w->setup_s(), "s"},
        {"wall_s", median(untraced.ref_wall), "ref_s"},
        {"cpu_s", median(untraced.ref_cpu), "ref_s"},
        {"replicates_per_s",
         static_cast<double>(untraced.replicates) / untraced.total_ref_wall,
         "1/ref_s"},
        {"peak_rss_mb", rss, "MB"},
        {"success_rate", 0.0, "frac"},
    };
    const auto q = quartiles(untraced.wall);
    std::fprintf(stderr,
                 "[perfbench] %s: %zu timed iterations, measured wall quartiles "
                 "%.4f / %.4f / %.4f s, cpu median %.4f s, probe median %.4f s\n",
                 options.workload.c_str(), untraced.wall.size(), q[0], q[1],
                 q[2], median(untraced.cpu), median(untraced.probes));
  } else {
    Tracer tracer;
    LayerAcc acc;
    const LoopResult traced = timed_loop(*w, options.seconds, &tracer, &acc);
    w->verify();
    // The step replay runs single-threaded, as a replicate's kernels do
    // inside a study.
    nnr::runtime::ThreadPool::set_global_threads(1);
    const ReplayTotals replay =
        replay_pairs(distinct_pairs(w->trained_cells()), tracer, kReplaySteps);
    report.metrics = layer_metrics(*w, acc, traced, untraced, tracer, replay);
    if (!options.trace_path.empty() &&
        !tracer.write_chrome_json(options.trace_path)) {
      std::fprintf(stderr, "[perfbench] could not write %s\n",
                   options.trace_path.c_str());
    }
  }
  if (options.record) {
    const std::string seed = options.workload == "fleet" ? "*" : std::to_string(options.seed);
    for (const StudyDigest& d : w->recorded()) {
      report.reference_lines.push_back(options.workload + " " + seed + " " +
                                       d.study + " " + d.cells + " " + d.table);
    }
  }
  w.reset();  // stops daemons before the scratch dir goes
  fs::remove_all(options.work_dir);
  for (Metric& metric : report.metrics) {
    if (metric.name == "success_rate") {
      metric.value =
          report.attempted > 0
              ? 1.0 - static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
              : 0.0;
    }
  }
  return report;
}

}  // namespace perfbench

// nnr_run: command-line stability-study runner.
//
// The figure/table benches reproduce the paper's exact cells; this tool lets
// a downstream user compose their own cell — task x device x noise variant x
// replicate count — or run any named study from the registry (batched:
// `--study fig1,table2` schedules every queued grid as ONE claim pass with
// duplicate cells coalesced), and get the paper's stability measures
// (accuracy mean/stddev, predictive churn, normalized L2 weight distance)
// as an aligned table or CSV. Every run goes through the study scheduler,
// so a cache — a directory (--cache-dir / NNR_CACHE_DIR) or a remote
// nnr_cached daemon (--cache-url / NNR_CACHE_URL) — makes repeated runs
// near-free: replicates are served bit-for-bit identical to fresh training.
//
// Flags are declared once in kFlags below; the parser dispatches from that
// table and --help is generated from it, so usage text and accepted flags
// cannot drift apart. The full reference lives in docs/nnr_run.md.
//
// Usage:
//   nnr_run --task smallcnn_bn --device V100 --variant impl --replicates 10
//   nnr_run --study table2 --cache-dir /tmp/nnr-cache
//   nnr_run --study fig1,fig2,table2 --cache-url tcp://cachehost:9776
//   nnr_run --study fig2 --cache-url tcp://shard0:9776,tcp://shard1:9777
//   nnr_run --submit fig2,table2 --cache-url tcp://cachehost:9776
//   nnr_run --worker --cache-url tcp://cachehost:9776
//   nnr_run --list
//   nnr_run --task resnet18_c100 --all-variants --csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/study.h"
#include "core/table.h"
#include "core/tasks.h"
#include "hw/device.h"
#include "net/backoff.h"
#include "opt/adam.h"
#include "opt/rmsprop.h"
#include "opt/sgd.h"
#include "report/exporter.h"
#include "runtime/parse_int.h"
#include "runtime/thread_pool.h"
#include "sched/cache_backend.h"
#include "sched/fleet_client.h"
#include "sched/registry.h"
#include "sched/remote_cache_backend.h"
#include "sched/sharded_cache_backend.h"
#include "sched/scheduler.h"
#include "sched/study_plan.h"

namespace {

using namespace nnr;

std::optional<core::NoiseVariant> parse_variant(const std::string& name) {
  if (name == "algo+impl") return core::NoiseVariant::kAlgoPlusImpl;
  if (name == "algo") return core::NoiseVariant::kAlgo;
  if (name == "impl") return core::NoiseVariant::kImpl;
  if (name == "control") return core::NoiseVariant::kControl;
  return std::nullopt;
}

std::optional<core::OptimizerFactory> parse_optimizer(
    const std::string& name) {
  if (name == "sgd") {
    return core::OptimizerFactory{[](std::vector<nn::Param*> p) {
      return std::make_unique<opt::Sgd>(std::move(p));
    }};
  }
  if (name == "sgd_momentum") {
    return core::OptimizerFactory{[](std::vector<nn::Param*> p) {
      return std::make_unique<opt::Sgd>(std::move(p), 0.9F);
    }};
  }
  if (name == "adam") {
    return core::OptimizerFactory{[](std::vector<nn::Param*> p) {
      return std::make_unique<opt::Adam>(std::move(p));
    }};
  }
  if (name == "rmsprop") {
    return core::OptimizerFactory{[](std::vector<nn::Param*> p) {
      return std::make_unique<opt::RmsProp>(std::move(p));
    }};
  }
  return std::nullopt;
}

void print_catalog() {
  std::printf("tasks:\n");
  for (const core::TaskInfo& info : core::task_registry()) {
    std::printf("  %-18s %s\n", info.id.c_str(), info.description.c_str());
  }
  std::printf("devices:\n");
  for (const hw::DeviceSpec& device : hw::all_devices()) {
    std::printf("  %s\n", device.name.c_str());
  }
  std::printf("variants: algo+impl, algo, impl, control\n");
  std::printf("optimizers: sgd, sgd_momentum, adam, rmsprop "
              "(default: the recipe's SGD)\n");
  std::printf("studies:\n");
  for (const sched::StudyDef& def : sched::study_registry()) {
    std::printf("  %-32s %s\n", def.id.c_str(), def.description.c_str());
  }
}

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "nnr_run: %s\n(run with --list for the catalog, "
               "--help for usage)\n", message);
  std::exit(2);
}

/// Strict integer flag parse: the whole value must be one decimal integer
/// ("--threads 4x" or "--threads abc" is an error, never a silent 0).
std::int64_t parse_int_flag(const char* flag, const char* text) {
  const auto parsed = runtime::parse_int_strict(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "nnr_run: %s needs an integer, got '%s' (trailing junk and "
                 "out-of-range values are rejected)\n",
                 flag, text);
    std::exit(2);
  }
  return *parsed;
}

/// Sanity cap for --threads (a pool cap, not a budget — far above any real
/// machine, far below int overflow).
constexpr std::int64_t kMaxThreadsFlag = 1 << 20;

struct Options {
  std::string task = "smallcnn_bn";
  std::string device = "V100";
  std::vector<std::string> studies;     // non-empty selects study mode
  std::string study_file;               // --study-file; appended to studies
  bool study_mode_requested = false;    // --study/--study-file seen at all
  bool single_cell_flags_used = false;  // --study rejects these
  std::vector<core::NoiseVariant> variants = {
      core::NoiseVariant::kAlgoPlusImpl};
  core::OptimizerFactory optimizer;  // empty = recipe SGD
  std::string optimizer_name;        // "" = recipe SGD
  std::int64_t replicates = 0;  // 0 = task preset
  std::int64_t epochs = 0;      // 0 = recipe preset
  int threads = 0;
  bool csv = false;
  bool json = false;
  bool cache_gc = false;         // --cache-gc maintenance mode
  std::vector<std::string> submit_studies;  // --submit (fleet coordinator)
  bool submit_mode = false;      // --submit seen at all
  bool worker_mode = false;      // --worker (fleet worker loop)
  std::string out_dir;           // empty = no file export
  std::string cache_dir;         // empty = NNR_CACHE_DIR, else that value
  std::string cache_url;         // empty = NNR_CACHE_URL, else that value
                                 // (single url or comma-separated shard map)
  bool cache_url_from_flag = false;  // first --cache-url replaces the env
                                     // seed; later ones append shards
  std::int64_t cache_budget = 0; // bytes; 0 = NNR_CACHE_BUDGET / unlimited
};

// ---------------------------------------------------------------------------
// The flag table: one entry per flag, driving BOTH the parser and --help.
// ---------------------------------------------------------------------------

void print_usage();

void append_names(std::vector<std::string>& out, const std::string& list) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!name.empty()) out.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

void append_studies(Options& opts, const std::string& list) {
  append_names(opts.studies, list);
}

enum class Section { kSingle, kStudy, kFleet, kMaint, kShared };

struct FlagSpec {
  const char* name;
  const char* value;  // value placeholder, nullptr for boolean flags
  Section section;
  const char* help;   // '\n' starts an aligned continuation line
  void (*apply)(Options&, const char* value);
};

const FlagSpec kFlags[] = {
    {"--task", "NAME", Section::kSingle,
     "a named task; see --list (default: smallcnn_bn)",
     [](Options& o, const char* v) { o.task = v; }},
    {"--device", "NAME", Section::kSingle,
     "P100 | V100 | RTX5000 | \"RTX5000 TC\" | T4 | TPUv2",
     [](Options& o, const char* v) { o.device = v; }},
    {"--variant", "NAME", Section::kSingle,
     "algo+impl | algo | impl | control",
     [](Options& o, const char* v) {
       const auto variant = parse_variant(v);
       if (!variant) usage_error("unknown --variant");
       o.variants = {*variant};
     }},
    {"--all-variants", nullptr, Section::kSingle,
     "run algo+impl, algo, and impl (overrides --variant)",
     [](Options& o, const char*) {
       o.variants = {core::NoiseVariant::kAlgoPlusImpl,
                     core::NoiseVariant::kAlgo, core::NoiseVariant::kImpl};
     }},
    {"--optimizer", "NAME", Section::kSingle,
     "sgd | sgd_momentum | adam | rmsprop\n"
     "(default: the recipe's SGD setting)",
     [](Options& o, const char* v) {
       const auto factory = parse_optimizer(v);
       if (!factory) usage_error("unknown --optimizer");
       o.optimizer = *factory;
       o.optimizer_name = v;
     }},
    {"--replicates", "N", Section::kSingle,
     "independent trainings per cell (default: task preset)",
     [](Options& o, const char* v) {
       o.replicates = parse_int_flag("--replicates", v);
     }},
    {"--epochs", "N", Section::kSingle,
     "override the task recipe's epoch count",
     [](Options& o, const char* v) {
       o.epochs = parse_int_flag("--epochs", v);
     }},
    {"--study", "LIST", Section::kStudy,
     "run named studies (a full figure/table grid each); see\n"
     "--list. Comma-separate to batch: the queued grids are\n"
     "scheduled as ONE pass and cells shared between studies\n"
     "train once (coalesced), not once per study",
     [](Options& o, const char* v) {
       o.study_mode_requested = true;
       append_studies(o, v);
     }},
    {"--study-file", "FILE", Section::kStudy,
     "read study names from FILE (one per line or comma-\n"
     "separated; '#' comments), appended to --study's list",
     [](Options& o, const char* v) {
       o.study_mode_requested = true;
       o.study_file = v;
     }},
    {"--submit", "LIST", Section::kFleet,
     "fleet coordinator: enqueue the named studies' cells on\n"
     "the daemon's durable work queue (requires --cache-url),\n"
     "print fleet-wide progress until workers drain it, then\n"
     "replay the studies locally (warm) for the usual tables",
     [](Options& o, const char* v) {
       o.submit_mode = true;
       append_names(o.submit_studies, v);
     }},
    {"--worker", nullptr, Section::kFleet,
     "fleet worker: FETCH -> train -> store -> REPORT loop\n"
     "against the daemon's queue (requires --cache-url).\n"
     "Stateless; join or kill workers mid-study freely — a\n"
     "dead worker's cell returns to the queue via its lease",
     [](Options& o, const char*) { o.worker_mode = true; }},
    {"--cache-gc", nullptr, Section::kMaint,
     "garbage-collect the cache and exit: sweep orphaned .tmp\n"
     "files (dead writers) and unheld lockfiles, evict to the\n"
     "byte budget (LRU), compact the access journal. Works on\n"
     "a directory (--cache-dir) or a daemon (--cache-url)",
     [](Options& o, const char*) { o.cache_gc = true; }},
    {"--cache-dir", "DIR", Section::kShared,
     "persistent replicate cache; replicates already on disk\n"
     "are loaded (bitwise identical to retraining) instead of\n"
     "trained. Defaults to NNR_CACHE_DIR when set. Concurrent\n"
     "runs sharing one cache dir partition the grid via\n"
     "per-key advisory locks (each cell trains exactly once)",
     [](Options& o, const char* v) { o.cache_dir = v; }},
    {"--cache-url", "URL", Section::kShared,
     "remote replicate cache: tcp://host:port of an nnr_cached\n"
     "daemon, or a comma-separated shard map (tcp://a:1,tcp://b:2)\n"
     "routing each key to one shard by rendezvous hashing. Repeat\n"
     "the flag to append shards. Defaults to NNR_CACHE_URL when\n"
     "set; overrides --cache-dir. Claims become TTL leases\n"
     "(heartbeat-renewed, released on death); an unreachable\n"
     "daemon or shard degrades to local recompute, never an error",
     [](Options& o, const char* v) {
       if (o.cache_url_from_flag && !o.cache_url.empty()) {
         o.cache_url += ',';  // repeated flag = grow the shard map
         o.cache_url += v;
       } else {
         o.cache_url = v;  // first flag occurrence beats the env seed
         o.cache_url_from_flag = true;
       }
     }},
    {"--cache-budget", "N", Section::kShared,
     "cache byte budget; a store that pushes the cache over N\n"
     "bytes evicts least-recently-used entries (never one\n"
     "that is mid-training). Defaults to NNR_CACHE_BUDGET;\n"
     "0 = unlimited. Filesystem caches only: with --cache-url\n"
     "the budget belongs to the daemon (nnr_cached --budget)",
     [](Options& o, const char* v) {
       o.cache_budget = parse_int_flag("--cache-budget", v);
       if (o.cache_budget < 0) {
         usage_error("--cache-budget must be >= 0 (bytes; 0 = unlimited)");
       }
     }},
    {"--threads", "N", Section::kShared,
     "cap host-thread fan-out for this run. Precedence:\n"
     "this flag > NNR_THREADS > hardware concurrency.\n"
     "0 (default) = full shared-pool width; negative = serial",
     [](Options& o, const char* v) {
       const std::int64_t threads = parse_int_flag("--threads", v);
       // Strict parsing must not be undone by a silent int64 -> int
       // truncation (2^32 would become 0 = "full pool").
       if (threads > kMaxThreadsFlag || threads < -kMaxThreadsFlag) {
         usage_error("--threads is out of range");
       }
       o.threads = static_cast<int>(threads);
     }},
    {"--csv", nullptr, Section::kShared,
     "emit CSV instead of the aligned table",
     [](Options& o, const char*) { o.csv = true; }},
    {"--json", nullptr, Section::kShared,
     "emit JSON instead of the aligned table",
     [](Options& o, const char*) { o.json = true; }},
    {"--out", "DIR", Section::kShared,
     "also write the table as .txt/.csv/.json under DIR",
     [](Options& o, const char* v) { o.out_dir = v; }},
    {"--list", nullptr, Section::kShared,
     "print available tasks/devices/variants/studies and exit",
     [](Options&, const char*) {
       print_catalog();
       std::exit(0);
     }},
    {"--help", nullptr, Section::kShared, "this text",
     [](Options&, const char*) {
       print_usage();
       std::exit(0);
     }},
};

constexpr const char* kUsageFooter = R"(
Environment: NNR_CACHE_DIR / NNR_CACHE_URL / NNR_CACHE_BUDGET /
NNR_CACHE_LEASE_MS seed the cache flags above (NNR_CACHE_URL accepts the
same comma-separated shard map as --cache-url); NNR_THREADS sizes the
shared pool; NNR_REPLICATES / NNR_EPOCHS / NNR_TRAIN_N / NNR_QUICK scale
studies; NNR_FLEET_STORE_RETRIES / NNR_FLEET_STORE_RETRY_MS tune worker
PUT retries. Full reference: docs/nnr_run.md.

Integer flags are parsed strictly: trailing junk ("--threads 4x") is an
error, never a silent zero. Cache stats and progress go to stderr
([cache] hits=... / [study] 5/36 cells, ...), never into tables, so
warm-cache reruns emit byte-identical artifacts. A run killed mid-study is
resumable: rerun with the same cache and only the missing replicates
train, with bitwise-identical final tables.
)";

const char* section_title(Section section) {
  switch (section) {
    case Section::kSingle: return "Single-cell mode (default):";
    case Section::kStudy: return "Study mode:";
    case Section::kFleet: return "Fleet mode (one coordinator, N workers):";
    case Section::kMaint: return "Cache maintenance mode:";
    case Section::kShared: return "Shared:";
  }
  return "";
}

/// --help text, generated from kFlags so it cannot drift from the parser.
void print_usage() {
  std::printf("nnr_run: stability-study runner\n");
  for (const Section section : {Section::kSingle, Section::kStudy,
                                Section::kFleet, Section::kMaint,
                                Section::kShared}) {
    std::printf("\n%s\n", section_title(section));
    for (const FlagSpec& spec : kFlags) {
      if (spec.section != section) continue;
      std::string label = spec.name;
      if (spec.value != nullptr) {
        label += ' ';
        label += spec.value;
      }
      const char* help = spec.help;
      bool first = true;
      while (help != nullptr) {
        const char* newline = std::strchr(help, '\n');
        const std::string line =
            newline != nullptr ? std::string(help, newline) : std::string(help);
        if (first) {
          std::printf("  %-17s %s\n", label.c_str(), line.c_str());
          first = false;
        } else {
          std::printf("  %-17s %s\n", "", line.c_str());
        }
        help = newline != nullptr ? newline + 1 : nullptr;
      }
    }
  }
  std::printf("%s", kUsageFooter);
}

const FlagSpec* find_flag(const char* arg) {
  for (const FlagSpec& spec : kFlags) {
    if (std::strcmp(spec.name, arg) == 0) return &spec;
  }
  return nullptr;
}

/// Appends the study names listed in `path` (one per line or comma-
/// separated; blank lines and '#' comments skipped).
void load_study_file(Options& opts, const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("--study-file: cannot open the file");
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim whitespace around the whole line; names themselves have none.
    std::string trimmed;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') trimmed += c;
    }
    if (!trimmed.empty()) append_studies(opts, trimmed);
  }
}

Options parse_args(int argc, char** argv) {
  Options opts;
  {
    const sched::CacheConfig env = sched::cache_config_from_env();
    opts.cache_dir = env.dir;
    opts.cache_url = env.url;
    opts.cache_budget = env.budget;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-h") == 0) arg = "--help";
    const FlagSpec* spec = find_flag(arg);
    if (spec == nullptr) usage_error("unknown flag");
    const char* value = nullptr;
    if (spec->value != nullptr) {
      if (i + 1 >= argc) usage_error("flag needs a value");
      value = argv[++i];
    }
    if (spec->section == Section::kSingle) opts.single_cell_flags_used = true;
    spec->apply(opts, value);
  }
  if (!opts.study_file.empty()) load_study_file(opts, opts.study_file);
  if (opts.study_mode_requested && opts.studies.empty()) {
    usage_error("--study/--study-file named no studies (empty list or a "
                "file of only comments) — refusing to fall back to "
                "single-cell mode");
  }
  if (!opts.studies.empty() && opts.single_cell_flags_used) {
    usage_error("--study runs fixed registry grids; it cannot be combined "
                "with --task/--device/--variant/--all-variants/--optimizer/"
                "--replicates/--epochs (scale studies via NNR_* env knobs)");
  }
  if (opts.cache_gc && (!opts.studies.empty() || opts.single_cell_flags_used)) {
    usage_error("--cache-gc is a standalone maintenance mode; combine it "
                "only with --cache-dir/--cache-url/--cache-budget");
  }
  if (opts.submit_mode && opts.submit_studies.empty()) {
    usage_error("--submit named no studies");
  }
  if (opts.submit_mode && opts.worker_mode) {
    usage_error("--submit and --worker are different roles; run them as "
                "separate processes");
  }
  if ((opts.submit_mode || opts.worker_mode) &&
      (opts.study_mode_requested || opts.single_cell_flags_used ||
       opts.cache_gc)) {
    usage_error("--submit/--worker are standalone fleet modes; they cannot "
                "be combined with --study/--study-file, single-cell flags, "
                "or --cache-gc");
  }
  if ((opts.submit_mode || opts.worker_mode) && opts.cache_url.empty()) {
    usage_error("--submit/--worker need the daemon's queue: pass "
                "--cache-url/NNR_CACHE_URL (tcp://host:port of nnr_cached)");
  }
  return opts;
}

/// The backend the options select (nullptr = no cache). --cache-url wins
/// over --cache-dir, mirroring make_cache_backend's env precedence.
std::unique_ptr<sched::CacheBackend> make_backend(const Options& opts) {
  sched::CacheConfig config;
  config.dir = opts.cache_dir;
  config.url = opts.cache_url;
  config.budget = opts.cache_budget;
  try {
    return sched::make_cache_backend(config);
  } catch (const std::invalid_argument& error) {
    usage_error(error.what());
  }
}

/// The router over --cache-url's shard map, for the fleet modes: one
/// client per daemon, the queue on shard 0.
std::unique_ptr<sched::ShardedCacheBackend> make_router(const Options& opts) {
  try {
    return sched::make_sharded_cache_backend(
        sched::split_cache_urls(opts.cache_url));
  } catch (const std::invalid_argument& error) {
    usage_error(error.what());
  }
}

int run_cache_gc(const Options& opts) {
  auto backend = make_backend(opts);
  if (backend == nullptr) {
    usage_error("--cache-gc needs a cache (--cache-dir/NNR_CACHE_DIR or "
                "--cache-url/NNR_CACHE_URL)");
  }
  const sched::GcStats gc = backend->gc();
  std::printf("[cache-gc] target=%s removed_tmp=%lld removed_locks=%lld "
              "evicted=%lld evicted_bytes=%lld entries=%lld bytes=%lld\n",
              backend->describe().c_str(),
              static_cast<long long>(gc.removed_tmp),
              static_cast<long long>(gc.removed_locks),
              static_cast<long long>(gc.evicted),
              static_cast<long long>(gc.evicted_bytes),
              static_cast<long long>(gc.entries),
              static_cast<long long>(gc.bytes));
  return 0;
}

void emit_table(const Options& opts, const core::TextTable& table,
                const std::string& experiment, const std::string& slug,
                const std::string& title) {
  if (opts.csv) {
    std::printf("%s", table.render_csv().c_str());
  } else if (opts.json) {
    std::printf("%s", report::render_json(table).c_str());
  } else {
    std::printf("%s\n", table.render(title).c_str());
  }
  if (!opts.out_dir.empty()) {
    report::Exporter exporter(opts.out_dir);
    exporter.write(table, experiment, slug, title);
  }
}

void report_cache(const sched::StudyResult& result, bool cache_enabled) {
  if (cache_enabled) {
    std::fprintf(stderr, "[cache] %s\n",
                 sched::cache_stats_line(result).c_str());
  }
  std::fprintf(stderr, "[study] trained=%lld\n",
               static_cast<long long>(result.trained));
}

/// --threads N (> 0) must win over NNR_THREADS (flag > env > hardware), and
/// a RunOptions cap can only narrow the shared pool — so widen the pool
/// itself first. Safe here: nothing has run on the pool yet.
void apply_thread_flag(int threads) {
  if (threads > 0) runtime::ThreadPool::set_global_threads(threads);
}

core::TextTable study_table(const sched::StudyPlan& plan,
                            const sched::StudyResult& result) {
  core::TextTable table({"Task", "Device", "Variant", "Mean acc %",
                         "STDDEV(Acc) %", "Churn %", "L2 Norm"});
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const sched::Cell& cell = plan.cells()[c];
    const core::VariantSummary summary = core::summarize(result.cells[c]);
    table.add_row({cell.task_name, cell.job.device.name,
                   std::string(core::variant_name(cell.job.variant)),
                   core::fmt_float(summary.accuracy_pct(), 2),
                   core::fmt_float(summary.accuracy_stddev_pct(), 3),
                   core::fmt_float(summary.churn_pct(), 2),
                   core::fmt_float(summary.mean_l2, 4)});
  }
  return table;
}

int run_study_mode(const Options& opts) {
  std::vector<const sched::StudyDef*> defs;
  defs.reserve(opts.studies.size());
  for (const std::string& name : opts.studies) {
    const sched::StudyDef* def = sched::find_study(name);
    if (def == nullptr) {
      std::fprintf(stderr, "nnr_run: unknown study '%s'\n", name.c_str());
      usage_error("unknown --study");
    }
    defs.push_back(def);
  }

  std::vector<sched::StudyPlan> plans;
  plans.reserve(defs.size());
  std::vector<const sched::StudyPlan*> plan_ptrs;
  for (const sched::StudyDef* def : defs) {
    plans.push_back(def->make_plan());
    plan_ptrs.push_back(&plans.back());
  }

  apply_thread_flag(opts.threads);
  auto backend = make_backend(opts);
  sched::RunOptions run_opts;
  run_opts.threads = opts.threads;
  run_opts.progress = true;
  run_opts.cache = backend.get();
  const sched::BatchResult batch = sched::run_batch(plan_ptrs, run_opts);

  for (std::size_t p = 0; p < plans.size(); ++p) {
    const sched::StudyPlan& plan = plans[p];
    emit_table(opts, study_table(plan, batch.studies[p]), "study",
               plan.name(),
               "study " + plan.name() + " (" + defs[p]->description + ")");
    if (!opts.out_dir.empty() && backend != nullptr) {
      // Cache activity as its own artifact — kept out of the study table so
      // cold- and warm-cache runs emit byte-identical study files.
      report::Exporter exporter(opts.out_dir);
      exporter.write(sched::cache_stats_table(batch.studies[p]),
                     "cache_stats", plan.name(),
                     "replicate cache activity: " + plan.name());
    }
  }

  if (plans.size() > 1) {
    std::fprintf(stderr, "[batch] studies=%zu coalesced=%lld deferred=%lld\n",
                 plans.size(), static_cast<long long>(batch.coalesced),
                 static_cast<long long>(batch.deferred));
  }
  // Batch-wide totals in the one grep-able shape scripts rely on.
  sched::StudyResult totals;
  totals.cache = batch.cache;
  totals.trained = batch.trained;
  report_cache(totals, backend != nullptr);
  return 0;
}

/// Fleet coordinator: submit the named studies to the daemon's work queue,
/// wait for the fleet to drain it, then replay the studies locally against
/// the (now warm) cache so the emitted tables are byte-identical to a
/// plain `--study` run.
int run_fleet_submit_mode(const Options& opts) {
  for (const std::string& name : opts.submit_studies) {
    if (sched::find_study(name) == nullptr) {
      std::fprintf(stderr, "nnr_run: unknown study '%s'\n", name.c_str());
      usage_error("unknown --submit study");
    }
  }
  // The work queue lives on the FIRST shard of the map; a multi-shard
  // --cache-url only changes where cache *entries* live (each worker
  // routes its loads/stores by rendezvous hash). Caveat documented in
  // docs/nnr_run.md: the submit-time "already cached" dedupe only sees the
  // queue shard's directory, so keys owned by other shards enqueue and are
  // then reported kServed by the first worker to fetch them.
  auto router = make_router(opts);
  sched::RemoteCacheBackend& queue = router->shard(0);
  // Unlike caching (where an unreachable daemon degrades to local compute),
  // the coordinator's entire job is the daemon — fail loudly up front. A
  // few retries first, so one lost frame on a flaky link (or a daemon a
  // beat behind its supervisor) doesn't abort the wave before it starts.
  net::Jitter jitter(net::default_jitter_seed());
  if (!sched::retry_with_window(queue, /*attempts=*/5, /*base_ms=*/200,
                                jitter, [&] { return queue.ping(); })) {
    std::fprintf(stderr, "nnr_run: --submit: no nnr_cached daemon at %s\n",
                 queue.describe().c_str());
    return 1;
  }
  // A shard map whose entries share a cache directory would let one
  // daemon answer for another shard's keys — wave results would depend
  // on which client connected first. Refuse to start the wave.
  if (const auto violation = router->verify_disjoint()) {
    std::fprintf(stderr, "nnr_run: --submit: %s\n", violation->c_str());
    return 1;
  }
  sched::FleetSubmitOptions fleet_opts;
  const auto summary = sched::fleet_submit_and_wait(
      queue, opts.submit_studies, fleet_opts);
  if (!summary.has_value()) return 1;
  if (summary->failed > 0) {
    std::fprintf(stderr,
                 "[fleet] %llu cells failed %u attempts and will train "
                 "locally in the replay\n",
                 static_cast<unsigned long long>(summary->failed),
                 sched::FleetQueue::kMaxAttempts);
  }
  router.reset();  // the replay opens its own connections

  Options warm = opts;
  warm.studies = opts.submit_studies;
  return run_study_mode(warm);
}

int run_fleet_worker_mode(const Options& opts) {
  // Queue RPCs (FETCH/REPORT) go to the first shard — the queue daemon.
  // Entry traffic (the load-before-train and the PUT) goes through the
  // router, so every result lands on its key's owner daemon.
  const auto router = make_router(opts);
  apply_thread_flag(opts.threads);
  sched::FleetWorkerOptions worker_opts;
  // Chaos scripts crank these up so a worker rides out a shard restart
  // instead of burning one of the queue's bounded attempts per cell.
  if (const std::int64_t n = core::env_int("NNR_FLEET_STORE_RETRIES", -1);
      n >= 0) {
    worker_opts.store_retries = n;
  }
  if (const std::int64_t ms = core::env_int("NNR_FLEET_STORE_RETRY_MS", -1);
      ms >= 0) {
    worker_opts.store_retry_ms = ms;
  }
  const sched::FleetWorkerSummary summary =
      sched::fleet_run_worker(router->shard(0), worker_opts, router.get());
  std::fprintf(stderr, "[worker] fetched=%lld trained=%lld served=%lld "
               "failed=%lld\n",
               static_cast<long long>(summary.fetched),
               static_cast<long long>(summary.trained),
               static_cast<long long>(summary.served),
               static_cast<long long>(summary.failed));
  return summary.failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  if (opts.cache_gc) return run_cache_gc(opts);
  if (opts.submit_mode) return run_fleet_submit_mode(opts);
  if (opts.worker_mode) return run_fleet_worker_mode(opts);
  if (!opts.studies.empty()) return run_study_mode(opts);

  const core::TaskInfo* info = core::find_task(opts.task);
  if (info == nullptr) usage_error("unknown --task");

  const std::optional<hw::DeviceSpec> device = hw::find_device(opts.device);
  if (!device) usage_error("unknown --device");

  core::Task task = info->make();
  if (opts.epochs > 0) task.recipe.epochs = opts.epochs;
  const std::int64_t replicates =
      opts.replicates > 0 ? opts.replicates : task.default_replicates;

  // The single-cell path is a one-off study: one cell per requested variant,
  // scheduled and cached exactly like the registry studies.
  sched::StudyPlan plan("nnr_run_" + opts.task);
  const core::Task& owned = plan.own_task(std::move(task));
  for (const core::NoiseVariant variant : opts.variants) {
    sched::Cell& cell = plan.add_cell(owned, variant, *device, replicates);
    cell.job.make_optimizer = opts.optimizer;
    cell.optimizer_id = opts.optimizer_name;
  }

  apply_thread_flag(opts.threads);
  auto backend = make_backend(opts);
  sched::RunOptions run_opts;
  run_opts.threads = opts.threads;
  run_opts.progress = true;
  run_opts.cache = backend.get();
  const sched::StudyResult result = sched::run_plan(plan, run_opts);

  core::TextTable table({"Task", "Device", "Variant", "Mean acc %",
                         "STDDEV(Acc) %", "Churn %", "L2 Norm"});
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const core::VariantSummary summary = core::summarize(result.cells[c]);
    table.add_row({owned.name, device->name,
                   std::string(core::variant_name(plan.cells()[c].job.variant)),
                   core::fmt_float(summary.accuracy_pct(), 2),
                   core::fmt_float(summary.accuracy_stddev_pct(), 3),
                   core::fmt_float(summary.churn_pct(), 2),
                   core::fmt_float(summary.mean_l2, 4)});
  }

  const std::string title = "nnr_run stability summary (" +
                            std::to_string(replicates) + " replicates)";
  emit_table(opts, table, "nnr_run", opts.task, title);
  report_cache(result, backend != nullptr);
  return 0;
}

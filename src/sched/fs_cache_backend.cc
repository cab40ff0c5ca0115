#include "sched/fs_cache_backend.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "core/env.h"
#include "serialize/binary_io.h"
#include "serialize/run_result.h"

namespace nnr::sched {

namespace fs = std::filesystem;

namespace {

constexpr const char* kJournalName = "access.journal";
constexpr const char* kGcLockName = "gc.lock";
constexpr const char* kManifestName = "manifest";
// Compact the journal once it outgrows this — at 33 bytes per access this
// is ~8k accesses between compactions.
constexpr std::int64_t kJournalCompactBytes = 256 * 1024;

/// The fs backend's claim token: the flock itself. Destruction closes the
/// fd, which releases the kernel lock — exactly what process death does.
struct FsClaimImpl final : CacheClaim::Impl {
  explicit FsClaimImpl(FileLock l) : lock(std::move(l)) {}
  FileLock lock;
};

std::optional<CacheClaim> wrap_lock(std::optional<FileLock> lock) {
  if (!lock.has_value()) return std::nullopt;
  return CacheClaim(std::make_unique<FsClaimImpl>(std::move(*lock)));
}

/// One on-disk cache entry, with its LRU rank inputs.
struct EntryInfo {
  fs::path path;
  std::string hex;
  std::int64_t size = 0;
  fs::file_time_type mtime;
  // Position of the entry's most recent journal record; -1 when the entry
  // predates the journal (ranked oldest, tie-broken by mtime).
  std::int64_t recency = -1;
};

bool is_entry_name(const std::string& name) {
  if (name.size() != 35 || name.substr(32) != ".rr") return false;
  return std::all_of(name.begin(), name.begin() + 32, [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

/// Entries currently on disk (ignores temp files, locks, journal, manifest).
std::vector<EntryInfo> list_entries(const std::string& dir) {
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    const std::string name = path.filename().string();
    if (!is_entry_name(name)) continue;
    EntryInfo info;
    info.path = path;
    info.hex = name.substr(0, 32);
    std::error_code stat_ec;
    const auto size = fs::file_size(path, stat_ec);
    if (stat_ec) continue;  // vanished mid-scan (evicted by a peer)
    info.size = static_cast<std::int64_t>(size);
    info.mtime = fs::last_write_time(path, stat_ec);
    if (stat_ec) continue;
    entries.push_back(std::move(info));
  }
  return entries;
}

std::int64_t total_size(const std::vector<EntryInfo>& entries) {
  std::int64_t total = 0;
  for (const EntryInfo& e : entries) total += e.size;
  return total;
}

/// Sorts oldest-access-first: entries never journaled rank before journaled
/// ones (by mtime); journaled ones rank by the position of their last
/// journal record.
void sort_lru(std::vector<EntryInfo>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) {
              if (a.recency != b.recency) return a.recency < b.recency;
              return a.mtime < b.mtime;
            });
}

/// Stamps each entry's recency with the position of its last journal
/// record (one O(tokens) pass, not a scan per entry) and sorts LRU-first.
void rank_lru(std::vector<EntryInfo>& entries,
              const std::vector<std::string>& tokens) {
  std::unordered_map<std::string, std::int64_t> last_index;
  last_index.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    last_index[tokens[i]] = static_cast<std::int64_t>(i);
  }
  for (EntryInfo& e : entries) {
    const auto it = last_index.find(e.hex);
    if (it != last_index.end()) e.recency = it->second;
  }
  sort_lru(entries);
}

}  // namespace

FsCacheBackend::FsCacheBackend(std::string dir, std::int64_t budget_bytes)
    : dir_(std::move(dir)),
      budget_(std::max<std::int64_t>(budget_bytes, 0)),
      journal_((fs::path(dir_) / kJournalName).string()) {}

FsCacheBackend FsCacheBackend::from_env() {
  const char* dir = std::getenv("NNR_CACHE_DIR");
  return FsCacheBackend(dir != nullptr ? dir : "",
                        core::env_int("NNR_CACHE_BUDGET", 0));
}

std::string FsCacheBackend::path_for(const CellKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".rr")).string();
}

std::string FsCacheBackend::lock_path_for(const CellKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".lock")).string();
}

std::string FsCacheBackend::gc_lock_path() const {
  return (fs::path(dir_) / kGcLockName).string();
}

void FsCacheBackend::touch(const CellKey& key) const {
  journal_.append(key.hex());
}

void FsCacheBackend::ensure_dir_and_manifest() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (manifest_checked_.exchange(true)) return;
  const std::string manifest = (fs::path(dir_) / kManifestName).string();
  if (fs::exists(manifest, ec)) return;
  // First writer wins; guarded by the cache-wide lock so two processes
  // initializing one fresh dir don't interleave partial writes.
  auto lock = FileLock::try_acquire(gc_lock_path());
  if (!lock.has_value()) return;  // a peer is writing it right now
  (void)serialize::replace_file(
      manifest, "nnr-replicate-cache v1\ncell_key_version=" +
                    std::to_string(kCellKeyVersion) + "\n");
}

void FsCacheBackend::count(const CacheStats& delta, CacheStats* run) {
  std::lock_guard<std::mutex> lock(mu_);
  for (CacheStats* s : {&stats_, run}) {
    if (s == nullptr) continue;
    s->hits += delta.hits;
    s->misses += delta.misses;
    s->corrupt += delta.corrupt;
    s->stores += delta.stores;
    s->bytes_read += delta.bytes_read;
    s->bytes_written += delta.bytes_written;
  }
}

std::optional<std::string> FsCacheBackend::read_entry(
    const CellKey& key, CacheStats* run, bool count_miss,
    core::RunResult* decoded) {
  if (!enabled()) return std::nullopt;
  const std::string path = path_for(key);
  std::optional<std::string> bytes = serialize::read_file(path);
  // An entry evicted by a peer before we opened it is a plain miss; only an
  // entry that was read and does not decode is corrupt.
  bool corrupt = false;
  if (bytes.has_value() && decoded != nullptr) {
    try {
      *decoded = serialize::decode_run_result(*bytes, key.hi, key.lo, path);
    } catch (const serialize::CheckpointError&) {
      corrupt = true;
    }
  }
  if (!bytes.has_value() || corrupt) {
    if (count_miss) count({.misses = 1, .corrupt = corrupt ? 1 : 0}, run);
    return std::nullopt;
  }
  touch(key);
  count({.hits = 1, .bytes_read = static_cast<std::int64_t>(bytes->size())},
        run);
  return bytes;
}

std::optional<core::RunResult> FsCacheBackend::load(const CellKey& key,
                                                    CacheStats* run,
                                                    bool count_miss) {
  core::RunResult result;
  if (!read_entry(key, run, count_miss, &result).has_value()) {
    return std::nullopt;
  }
  return result;
}

std::optional<std::string> FsCacheBackend::load_bytes(const CellKey& key) {
  return read_entry(key, nullptr, true, nullptr);
}

bool FsCacheBackend::has_entry(const CellKey& key) const {
  if (!enabled()) return false;
  std::error_code ec;
  return fs::exists(path_for(key), ec) && !ec;
}

bool FsCacheBackend::store(const CellKey& key, const core::RunResult& result,
                           CacheStats* run) {
  if (!enabled()) return false;
  return store_bytes(
      key, serialize::encode_run_result(result, key.hi, key.lo), run);
}

bool FsCacheBackend::store_bytes(const CellKey& key, std::string_view bytes,
                                 CacheStats* run) {
  if (!enabled()) return false;
  ensure_dir_and_manifest();
  if (!serialize::replace_file(path_for(key), bytes)) return false;
  touch(key);
  const auto size = static_cast<std::int64_t>(bytes.size());
  count({.stores = 1, .bytes_written = size}, run);
  if (budget_ > 0) {
    if (approx_bytes_.load(std::memory_order_relaxed) >= 0) {
      approx_bytes_.fetch_add(size, std::memory_order_relaxed);
    }
    maybe_evict();
  }
  return true;
}

std::optional<CacheClaim> FsCacheBackend::try_claim(const CellKey& key) {
  if (!enabled()) return std::nullopt;
  ensure_dir_and_manifest();
  return wrap_lock(FileLock::try_acquire(lock_path_for(key)));
}

std::optional<CacheClaim> FsCacheBackend::claim(const CellKey& key) {
  if (!enabled()) return std::nullopt;
  ensure_dir_and_manifest();
  return wrap_lock(FileLock::acquire(lock_path_for(key)));
}

void FsCacheBackend::maybe_evict() {
  // Cheap pre-check: a running estimate of total entry bytes (seeded by one
  // scan, advanced by our own stores, reset to the authoritative total on
  // each eviction pass). Peers' stores are invisible to it, but they
  // advance their own estimates — whoever crosses the budget evicts.
  std::int64_t approx = approx_bytes_.load(std::memory_order_relaxed);
  if (approx < 0) {
    approx = total_size(list_entries(dir_));
    approx_bytes_.store(approx, std::memory_order_relaxed);
  }
  if (approx <= budget_) return;
  auto lock = FileLock::try_acquire(gc_lock_path());
  if (!lock.has_value()) return;  // a peer is already evicting
  evict_to_budget_locked(budget_, nullptr);
  if (journal_.size_bytes() > kJournalCompactBytes) compact_journal_locked();
}

void FsCacheBackend::evict_to_budget_locked(std::int64_t budget,
                                            GcStats* gc_stats) {
  std::vector<EntryInfo> entries = list_entries(dir_);
  std::int64_t total = total_size(entries);
  if (budget > 0 && total > budget) {
    rank_lru(entries, journal_.read());
    std::vector<EntryInfo> survivors;
    for (EntryInfo& victim : entries) {
      if (total <= budget) {
        survivors.push_back(std::move(victim));
        continue;
      }
      // In-flight keys (claim held by a trainer or a reader double-check)
      // are never evicted; holding the claim while removing closes the
      // race against a concurrent claimant of the same key.
      auto key_lock = FileLock::try_acquire(
          (victim.path.parent_path() / (victim.hex + ".lock")).string());
      if (!key_lock.has_value()) {
        survivors.push_back(std::move(victim));
        continue;
      }
      std::error_code ec;
      fs::remove(victim.path, ec);
      key_lock->unlink_and_release();
      if (!ec) {
        total -= victim.size;
        if (gc_stats != nullptr) {
          ++gc_stats->evicted;
          gc_stats->evicted_bytes += victim.size;
        }
      } else {
        survivors.push_back(std::move(victim));
      }
    }
    entries = std::move(survivors);
    sort_lru(entries);
  }
  approx_bytes_.store(total, std::memory_order_relaxed);
  if (gc_stats != nullptr) {
    gc_stats->entries = static_cast<std::int64_t>(entries.size());
    gc_stats->bytes = total;
  }
}

void FsCacheBackend::compact_journal_locked() const {
  // One record per surviving entry, oldest access first — semantically
  // identical to the full journal for LRU purposes.
  const std::int64_t size_at_read = journal_.size_bytes();
  std::vector<EntryInfo> entries = list_entries(dir_);
  rank_lru(entries, journal_.read());
  std::vector<std::string> compacted;
  compacted.reserve(entries.size());
  for (const EntryInfo& e : entries) compacted.push_back(e.hex);
  // Appends don't take the cache-wide lock, so a peer's hit may land while
  // we compact; skip the rewrite when the journal grew under us rather
  // than discard that record (a narrower window remains and costs at most
  // one entry's LRU rank — never correctness).
  if (journal_.size_bytes() != size_at_read) return;
  journal_.rewrite(compacted);
}

GcStats FsCacheBackend::gc() {
  GcStats result;
  if (!enabled()) return result;
  std::error_code ec;
  if (!fs::exists(dir_, ec)) return result;
  auto lock = FileLock::acquire(gc_lock_path());
  if (!lock.has_value()) return result;

  // Sweep orphaned temp files: a writer that died between open and rename
  // leaves its serialize::temp_path (`<file>.tmp<pid>.<tid>`) behind. A
  // live pid means a replace_file is in flight right now (an entry store,
  // journal compaction, the fleet queue snapshot) — leave it alone.
  std::vector<fs::path> tmp_files;
  std::vector<fs::path> lock_files;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (serialize::is_temp_name(name)) {
      tmp_files.push_back(it->path());
    } else if (name.size() > 5 && name.substr(name.size() - 5) == ".lock" &&
               name != kGcLockName) {
      lock_files.push_back(it->path());
    }
  }
  for (const fs::path& tmp : tmp_files) {
    if (serialize::temp_writer_alive(tmp.filename().string())) continue;
    fs::remove(tmp, ec);
    if (!ec) ++result.removed_tmp;
  }
  // Sweep unheld key lockfiles (left behind by finished or killed claims).
  // try_acquire + unlink-under-lock keeps this safe against concurrent
  // claimants — they detect the dead inode and re-create the file.
  for (const fs::path& path : lock_files) {
    auto key_lock = FileLock::try_acquire(path.string());
    if (!key_lock.has_value()) continue;  // held: a trainer owns this key
    key_lock->unlink_and_release();
    ++result.removed_locks;
  }

  evict_to_budget_locked(budget_, &result);
  compact_journal_locked();
  return result;
}

FsCacheBackend::Usage FsCacheBackend::usage() const {
  Usage usage;
  if (!enabled()) return usage;
  const std::vector<EntryInfo> entries = list_entries(dir_);
  usage.entries = static_cast<std::int64_t>(entries.size());
  usage.bytes = total_size(entries);
  return usage;
}

CacheStats FsCacheBackend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace nnr::sched

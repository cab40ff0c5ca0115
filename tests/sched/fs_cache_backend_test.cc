// FsCacheBackend: hit/miss accounting, atomic stores, the failure policy —
// a corrupted, truncated, or foreign entry must degrade to a miss
// (recompute), never crash the study — plus the hardening surfaces:
// exact per-run stats, cross-process claims, LRU eviction under a byte
// budget (never an in-flight key), and GC of orphaned temp/lock files.
#include "sched/fs_cache_backend.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sched/fleet_queue.h"
#include "serialize/binary_io.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {0, 3, 1, 2};
  r.test_confidences = {0.25F, 0.5F, 0.125F, 1.0F};
  r.final_weights = {-1.5F, 0.0F, 2.25F};
  r.test_accuracy = 0.75;
  r.final_train_loss = 1.25;
  return r;
}

void expect_bitwise_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.test_predictions, b.test_predictions);
  EXPECT_EQ(a.test_confidences, b.test_confidences);
  EXPECT_EQ(a.final_weights, b.final_weights);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.final_train_loss, b.final_train_loss);
}

class FsCacheBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nnr_cache_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FsCacheBackendTest, DisabledCacheIsInert) {
  FsCacheBackend cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.load({1, 2}).has_value());
  EXPECT_FALSE(cache.store({1, 2}, sample_result()));
  EXPECT_EQ(cache.stats().misses, 0);
  EXPECT_EQ(cache.stats().stores, 0);
}

TEST_F(FsCacheBackendTest, MissOnEmptyCache) {
  FsCacheBackend cache(dir_.string());
  EXPECT_FALSE(cache.load({1, 2}).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST_F(FsCacheBackendTest, StoreThenLoadRoundTripsBitwise) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{0xAB, 0xCD};
  ASSERT_TRUE(cache.store(key, sample_result()));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_bitwise_equal(*loaded, sample_result());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_GT(stats.bytes_written, 0);
  EXPECT_EQ(stats.bytes_read, stats.bytes_written);
}

TEST_F(FsCacheBackendTest, DistinctKeysAreDistinctEntries) {
  FsCacheBackend cache(dir_.string());
  ASSERT_TRUE(cache.store({1, 1}, sample_result()));
  EXPECT_FALSE(cache.load({1, 2}).has_value());
  EXPECT_TRUE(cache.load({1, 1}).has_value());
}

TEST_F(FsCacheBackendTest, CorruptedEntryFallsBackToMiss) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{7, 9};
  ASSERT_TRUE(cache.store(key, sample_result()));
  {
    // Flip one payload byte past the header.
    std::fstream f(cache.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    char c = 0;
    f.read(&c, 1);
    f.seekp(32);
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(FsCacheBackendTest, TruncatedEntryFallsBackToMiss) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{7, 10};
  ASSERT_TRUE(cache.store(key, sample_result()));
  fs::resize_file(cache.path_for(key), 20);
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(FsCacheBackendTest, ForeignEntryUnderWrongKeyIsRejected) {
  // A cache file renamed to another key's address must not be served: the
  // embedded key is verified on load.
  FsCacheBackend cache(dir_.string());
  const CellKey key_a{100, 1};
  const CellKey key_b{100, 2};
  ASSERT_TRUE(cache.store(key_a, sample_result()));
  fs::copy_file(cache.path_for(key_a), cache.path_for(key_b));
  EXPECT_FALSE(cache.load(key_b).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_TRUE(cache.load(key_a).has_value());
}

TEST_F(FsCacheBackendTest, StoreOverwritesInPlace) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{5, 5};
  core::RunResult first = sample_result();
  ASSERT_TRUE(cache.store(key, first));
  core::RunResult second = sample_result();
  second.test_accuracy = 0.5;
  ASSERT_TRUE(cache.store(key, second));
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->test_accuracy, 0.5);
}

TEST_F(FsCacheBackendTest, FromEnvHonorsNnrCacheDir) {
  ::setenv("NNR_CACHE_DIR", dir_.string().c_str(), 1);
  EXPECT_TRUE(FsCacheBackend::from_env().enabled());
  EXPECT_EQ(FsCacheBackend::from_env().dir(), dir_.string());
  ::unsetenv("NNR_CACHE_DIR");
  EXPECT_FALSE(FsCacheBackend::from_env().enabled());
}

TEST_F(FsCacheBackendTest, FromEnvHonorsBudget) {
  ::setenv("NNR_CACHE_DIR", dir_.string().c_str(), 1);
  ::setenv("NNR_CACHE_BUDGET", "4096", 1);
  EXPECT_EQ(FsCacheBackend::from_env().budget(), 4096);
  ::setenv("NNR_CACHE_BUDGET", "4096x", 1);  // junk -> unlimited, not 4096
  EXPECT_EQ(FsCacheBackend::from_env().budget(), 0);
  ::unsetenv("NNR_CACHE_BUDGET");
  ::unsetenv("NNR_CACHE_DIR");
}

TEST_F(FsCacheBackendTest, FailedStoreCountsNothingAndLeavesNoTemp) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{3, 4};
  // Occupy the entry's final path with a directory: the serialize step
  // succeeds but the atomic rename cannot, so the store must fail cleanly.
  fs::create_directories(cache.path_for(key));
  EXPECT_FALSE(cache.store(key, sample_result()));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 0);
  EXPECT_EQ(stats.bytes_written, 0) << "failed store must not pollute bytes";
  // The temp file was cleaned up.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(FsCacheBackendTest, BytesWrittenIsTheExactFileSize) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{8, 8};
  ASSERT_TRUE(cache.store(key, sample_result()));
  EXPECT_EQ(static_cast<std::uintmax_t>(cache.stats().bytes_written),
            fs::file_size(cache.path_for(key)));
}

TEST_F(FsCacheBackendTest, PerRunStatsReceiveTheSameDeltas) {
  FsCacheBackend cache(dir_.string());
  CacheStats run;
  const CellKey key{21, 22};
  EXPECT_FALSE(cache.load(key, &run).has_value());
  EXPECT_EQ(run.misses, 1);
  ASSERT_TRUE(cache.store(key, sample_result(), &run));
  EXPECT_EQ(run.stores, 1);
  ASSERT_TRUE(cache.load(key, &run).has_value());
  EXPECT_EQ(run.hits, 1);
  EXPECT_EQ(run.bytes_read, run.bytes_written);
  // The run-local view matches the cache-lifetime view built from the same
  // operations.
  const CacheStats total = cache.stats();
  EXPECT_EQ(total.hits, run.hits);
  EXPECT_EQ(total.misses, run.misses);
  EXPECT_EQ(total.stores, run.stores);
}

TEST_F(FsCacheBackendTest, ClaimIsExclusivePerKey) {
  FsCacheBackend cache(dir_.string());
  const CellKey key{31, 32};
  auto claim = cache.try_claim(key);
  ASSERT_TRUE(claim.has_value());
  // Second claimant (another worker or, via a second cache object, another
  // process) must be refused while the first holds the key.
  FsCacheBackend peer(dir_.string());
  EXPECT_FALSE(peer.try_claim(key).has_value());
  EXPECT_TRUE(peer.try_claim(CellKey{31, 33}).has_value())
      << "claims are per-key, not cache-wide";
  claim.reset();
  EXPECT_TRUE(peer.try_claim(key).has_value());
}

TEST_F(FsCacheBackendTest, DisabledCacheRefusesClaims) {
  FsCacheBackend cache("");
  EXPECT_FALSE(cache.try_claim({1, 1}).has_value());
  EXPECT_FALSE(cache.claim({1, 1}).has_value());
}

class FsCacheBackendEvictionTest : public FsCacheBackendTest {
 protected:
  /// Bytes of one serialized sample_result entry (measured, not assumed).
  std::int64_t entry_bytes() {
    const fs::path probe_dir = dir_.string() + "_probe";
    fs::remove_all(probe_dir);
    FsCacheBackend probe(probe_dir.string());
    const CellKey key{0xFF, 0xFF};
    EXPECT_TRUE(probe.store(key, sample_result()));
    const auto size = fs::file_size(probe.path_for(key));
    fs::remove_all(probe_dir);
    return static_cast<std::int64_t>(size);
  }
};

TEST_F(FsCacheBackendEvictionTest, EvictsLeastRecentlyUsedDownToBudget) {
  const std::int64_t entry = entry_bytes();
  // Room for three entries, not four.
  FsCacheBackend cache(dir_.string(), 3 * entry + entry / 2);
  const CellKey a{1, 0}, b{2, 0}, c{3, 0}, d{4, 0};
  ASSERT_TRUE(cache.store(a, sample_result()));
  ASSERT_TRUE(cache.store(b, sample_result()));
  ASSERT_TRUE(cache.store(c, sample_result()));
  // Touch `a`: it is now more recently used than `b` and `c`.
  ASSERT_TRUE(cache.load(a).has_value());
  // The fourth store exceeds the budget; the LRU entry (`b`) must go.
  ASSERT_TRUE(cache.store(d, sample_result()));
  EXPECT_TRUE(fs::exists(cache.path_for(a)));
  EXPECT_FALSE(fs::exists(cache.path_for(b))) << "LRU entry must be evicted";
  EXPECT_TRUE(fs::exists(cache.path_for(c)));
  EXPECT_TRUE(fs::exists(cache.path_for(d)));
  // Evicted entries are ordinary misses afterwards — the validity contract
  // (miss -> recompute) is untouched.
  CacheStats run;
  EXPECT_FALSE(cache.load(b, &run).has_value());
  EXPECT_EQ(run.corrupt, 0);
}

TEST_F(FsCacheBackendEvictionTest, NeverEvictsAnInFlightKey) {
  const std::int64_t entry = entry_bytes();
  // Room for two entries.
  FsCacheBackend cache(dir_.string(), 2 * entry + entry / 2);
  const CellKey a{1, 1}, b{2, 2}, c{3, 3};
  ASSERT_TRUE(cache.store(a, sample_result()));
  ASSERT_TRUE(cache.store(b, sample_result()));
  // `a` is the LRU candidate but is in flight (claim held, as the
  // scheduler holds it around a double-check/recompute).
  auto claim = cache.try_claim(a);
  ASSERT_TRUE(claim.has_value());
  ASSERT_TRUE(cache.store(c, sample_result()));
  EXPECT_TRUE(fs::exists(cache.path_for(a)))
      << "in-flight key must never be evicted";
  EXPECT_FALSE(fs::exists(cache.path_for(b)))
      << "eviction falls through to the next LRU entry";
  EXPECT_TRUE(fs::exists(cache.path_for(c)));
}

TEST_F(FsCacheBackendEvictionTest, UnlimitedBudgetNeverEvicts) {
  FsCacheBackend cache(dir_.string());  // budget 0 = unlimited
  for (std::uint64_t i = 1; i <= 16; ++i) {
    ASSERT_TRUE(cache.store(CellKey{i, i}, sample_result()));
  }
  for (std::uint64_t i = 1; i <= 16; ++i) {
    EXPECT_TRUE(fs::exists(cache.path_for(CellKey{i, i})));
  }
}

TEST_F(FsCacheBackendTest, GcSweepsOrphanedTempAndStaleLockFiles) {
  FsCacheBackend cache(dir_.string());
  const CellKey keep{10, 20};
  ASSERT_TRUE(cache.store(keep, sample_result()));
  // Orphan: writer pid that cannot exist. Live: this process's own pid.
  const fs::path orphan = dir_ / "0123456789abcdef0123456789abcdef.rr.tmp99999999.1";
  const fs::path live =
      dir_ / ("fedcba9876543210fedcba9876543210.rr.tmp" +
              std::to_string(::getpid()) + ".7");
  std::ofstream(orphan).put('x');
  std::ofstream(live).put('x');
  // Stale lockfile (unheld) vs a held claim.
  std::ofstream(dir_ / "00000000000000000000000000000001.lock").put('\n');
  auto held = cache.try_claim({0, 2});
  ASSERT_TRUE(held.has_value());

  const GcStats gc = cache.gc();
  EXPECT_EQ(gc.removed_tmp, 1);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(live)) << "a live writer's temp file must survive";
  EXPECT_EQ(gc.removed_locks, 1);
  EXPECT_TRUE(fs::exists(cache.lock_path_for({0, 2})))
      << "a held claim must survive GC";
  EXPECT_EQ(gc.entries, 1);
  EXPECT_EQ(static_cast<std::uintmax_t>(gc.bytes),
            fs::file_size(cache.path_for(keep)));
  // The surviving entry still loads.
  EXPECT_TRUE(cache.load(keep).has_value());
}

/// The pid of a child that has exited and been reaped: a writer that is
/// certainly dead.
pid_t reaped_child_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

// gc() judges a temp file by the writer pid the shared temp name embeds
// (serialize::temp_path): kept while that process lives, swept once it
// is gone.
TEST_F(FsCacheBackendTest, GcKeepsALiveWritersTempFileAndSweepsADeadOnes) {
  FsCacheBackend cache(dir_.string());
  ASSERT_TRUE(cache.store(CellKey{1, 1}, sample_result()));
  const std::string live =
      serialize::temp_path((dir_ / "fleet_queue.nnrq").string());
  const std::string own_pid = ".tmp" + std::to_string(::getpid()) + ".";
  std::string dead = live;
  dead.replace(dead.rfind(own_pid), own_pid.size(),
               ".tmp" + std::to_string(reaped_child_pid()) + ".");
  std::ofstream(live).put('x');
  std::ofstream(dead).put('x');

  const GcStats gc = cache.gc();
  EXPECT_TRUE(fs::exists(live)) << "its writer (this process) is alive";
  EXPECT_FALSE(fs::exists(dead)) << "its writer has exited";
  EXPECT_EQ(gc.removed_tmp, 1);
}

// The daemon keeps its fleet queue snapshot in the cache dir it serves, so
// a gc() may run while the queue persists. Its in-flight temp file must
// read as a live writer's: nothing is swept, every snapshot write lands,
// and no temp file is left behind.
TEST_F(FsCacheBackendTest, GcNeverSweepsAnInFlightQueueSnapshot) {
  FsCacheBackend cache(dir_.string());
  ASSERT_TRUE(cache.store(CellKey{1, 1}, sample_result()));
  const std::string snapshot = (dir_ / "fleet_queue.nnrq").string();
  FleetQueue queue(snapshot);
  std::vector<FleetWorkItem> items(4000);
  for (std::uint64_t i = 0; i < items.size(); ++i) {
    items[i] = {CellKey{i + 1, 7}, "fig2", static_cast<std::uint32_t>(i), 0};
  }
  queue.submit(items, nullptr);

  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) queue.persist();
    writing = false;
  });
  std::int64_t removed = 0;
  int passes = 0;
  while (writing) {
    removed += cache.gc().removed_tmp;
    ++passes;
  }
  writer.join();
  EXPECT_GT(passes, 0);
  EXPECT_EQ(removed, 0) << "gc() swept a live queue's snapshot temp file";
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(serialize::is_temp_name(entry.path().filename().string()))
        << entry.path();
  }
  FleetQueue restored(snapshot);
  restored.load();
  EXPECT_EQ(restored.total(), items.size());
}

TEST_F(FsCacheBackendTest, GcEvictsToBudgetAndCompactsTheJournal) {
  FsCacheBackend fill(dir_.string());
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(fill.store(CellKey{i, 0}, sample_result()));
  }
  const auto entry =
      static_cast<std::int64_t>(fs::file_size(fill.path_for(CellKey{1, 0})));
  FsCacheBackend bounded(dir_.string(), 2 * entry + entry / 2);
  const GcStats gc = bounded.gc();
  EXPECT_EQ(gc.evicted, 4);
  EXPECT_EQ(gc.entries, 2);
  EXPECT_LE(gc.bytes, bounded.budget());
  // LRU means the two newest stores survive.
  EXPECT_TRUE(fs::exists(bounded.path_for(CellKey{5, 0})));
  EXPECT_TRUE(fs::exists(bounded.path_for(CellKey{6, 0})));
  // Compacted journal: one line per surviving entry.
  std::ifstream journal(dir_ / "access.journal");
  std::string line;
  int lines = 0;
  while (std::getline(journal, line)) ++lines;
  EXPECT_EQ(lines, 2);
}

TEST_F(FsCacheBackendTest, GcOnDisabledOrMissingDirIsInert) {
  FsCacheBackend disabled("");
  const GcStats none = disabled.gc();
  EXPECT_EQ(none.entries, 0);
  FsCacheBackend missing((dir_ / "never_created").string());
  const GcStats empty = missing.gc();
  EXPECT_EQ(empty.entries, 0);
  EXPECT_FALSE(fs::exists(dir_ / "never_created"))
      << "gc must not create the cache dir";
}

}  // namespace
}  // namespace nnr::sched

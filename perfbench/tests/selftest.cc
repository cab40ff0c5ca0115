// Self-tests of the benchmark's own machinery:
//   - the order statistics it reports (median, quartiles matching Python's
//     statistics.quantiles, the ten-samples-beyond tail rule);
//   - the timing decorator: a study run through it must produce the same
//     counters and the same result digests as a run without it, cold and
//     warm;
//   - the host-speed probe: every round it keeps is a positive CPU time, and
//     a short budget still keeps five rounds.
//
// Usage: perfbench_selftest [WORK_DIR]   (default: ./perfbench_selftest_work)
// Exits 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "sched/cell_key.h"
#include "sched/fs_cache_backend.h"
#include "sched/registry.h"
#include "sched/scheduler.h"
#include "serialize/run_result.h"
#include "probe.h"
#include "stats.h"
#include "timing_cache.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void check_near(double got, double want, const std::string& what) {
  check(std::fabs(got - want) < 1e-9,
        what + " = " + std::to_string(got) + ", want " + std::to_string(want));
}

void test_stats() {
  using namespace perfbench;
  check_near(median({3, 1, 2}), 2.0, "median odd");
  check_near(median({4, 1, 3, 2}), 2.5, "median even");
  check_near(median({}), 0.0, "median empty");

  // Expected values from Python's statistics.quantiles(v, n=4).
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check_near(q10[0], 2.75, "q1 of 1..10");
  check_near(q10[1], 5.5, "q2 of 1..10");
  check_near(q10[2], 8.25, "q3 of 1..10");
  const auto q2 = quartiles({1, 2});
  check_near(q2[0], 0.75, "q1 of {1,2} (extrapolated, as Python does)");
  check_near(q2[2], 2.25, "q3 of {1,2}");
  const auto q3 = quartiles({5, 1, 3});
  check_near(q3[0], 1.0, "q1 of {5,1,3}");
  check_near(q3[2], 5.0, "q3 of {5,1,3}");
  const auto q5 = quartiles({10, 12, 11, 13, 30});
  check_near(q5[0], 10.5, "q1 with an outlier");
  check_near(q5[2], 21.5, "q3 with an outlier");

  check_near(percentile({1, 2, 3, 4, 5}, 50), 3.0, "p50");
  check_near(percentile({1, 2, 3, 4, 5}, 75), 4.0, "p75");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  check_near(percentile(hundred, 99), 100.0, "p99 of 1..101");

  // Ten-beyond rule: p99 needs 1000 samples, p90 needs 100, the median 20.
  check_near(static_cast<double>(samples_beyond(1000, 99.0)), 10.0,
             "beyond p99 of 1000");
  check_near(highest_supported_percentile(1000, 99.0), 99.0, "n=1000");
  check_near(highest_supported_percentile(999, 99.0), 95.0, "n=999");
  check_near(highest_supported_percentile(100, 99.0), 90.0, "n=100");
  check_near(highest_supported_percentile(100, 50.0), 50.0, "cap 50");
  check_near(highest_supported_percentile(20, 99.0), 50.0, "n=20");
  check_near(highest_supported_percentile(19, 99.0), 0.0, "n=19");
  double used = 0.0;
  check_near(tail({1, 2, 3}, 99.0, &used), 2.0, "tail of a tiny sample");
  check_near(used, 50.0, "tiny sample falls back to the median");
  check_near(tail(hundred, 99.0, &used), percentile(hundred, 90.0),
             "tail of 101 samples");
  check_near(used, 90.0, "101 samples support p90");
}

std::string digest(const nnr::sched::StudyPlan& plan,
                   const nnr::sched::StudyResult& result) {
  std::string all;
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const nnr::sched::Cell& cell = plan.cells()[c];
    for (std::int64_t r = 0; r < cell.replicates; ++r) {
      const auto key = nnr::sched::cell_key(cell, cell.ids_for(r));
      all += nnr::serialize::encode_run_result(
          result.cells[c][static_cast<std::size_t>(r)], key.hi, key.lo);
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : all) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  }
  return std::to_string(h);
}

void same_counts(const nnr::sched::StudyResult& a,
                 const nnr::sched::StudyResult& b, const std::string& what) {
  check(a.trained == b.trained, what + ": trained");
  check(a.coalesced == b.coalesced, what + ": coalesced");
  check(a.deferred == b.deferred, what + ": deferred");
  check(a.cache.hits == b.cache.hits, what + ": hits");
  check(a.cache.misses == b.cache.misses, what + ": misses");
  check(a.cache.stores == b.cache.stores, what + ": stores");
  check(a.cache.corrupt == b.cache.corrupt, what + ": corrupt");
  check(a.cache.bytes_read == b.cache.bytes_read, what + ": bytes read");
  check(a.cache.bytes_written == b.cache.bytes_written,
        what + ": bytes written");
}

void test_decorator_passthrough(const std::filesystem::path& work) {
  ::setenv("NNR_QUICK", "1", 1);
  nnr::runtime::ThreadPool::set_global_threads(4);
  const nnr::sched::StudyPlan plan =
      nnr::sched::find_study("fig2")->make_plan();
  std::filesystem::remove_all(work);
  nnr::sched::FsCacheBackend bare((work / "bare").string());
  nnr::sched::FsCacheBackend inner((work / "timed").string());
  perfbench::TimingCache timed(inner);

  for (const char* pass : {"cold", "warm"}) {
    nnr::sched::RunOptions a;
    a.threads = 4;
    a.cache = &bare;
    nnr::sched::RunOptions b = a;
    b.cache = &timed;
    const auto ra = nnr::sched::run_plan(plan, a);
    const auto rb = nnr::sched::run_plan(plan, b);
    same_counts(ra, rb, pass);
    check(digest(plan, ra) == digest(plan, rb),
          std::string(pass) + ": result digests");
  }
  const auto s = timed.summary();
  const auto replicates = static_cast<std::size_t>(plan.total_replicates());
  check(s.store.latency_us.size() == replicates, "one store per replicate");
  check(s.train_ms.size() == replicates, "one training interval each");
  check(s.load_hits == plan.total_replicates(), "warm pass hit every key");
  std::filesystem::remove_all(work);
}

void test_probe() {
  for (const int threads : {1, 2}) {
    std::vector<double> rounds;
    perfbench::probe(threads, 0.0, rounds);
    check(rounds.size() == 5, "probe with no budget keeps " +
                                  std::to_string(rounds.size()) + " rounds");
    for (const double r : rounds) {
      check(r > 0.0 && r < 10.0, "probe round of " + std::to_string(r) + " s");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path work =
      argc > 1 ? argv[1] : "perfbench_selftest_work";
  test_stats();
  test_probe();
  test_decorator_passthrough(work);
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}

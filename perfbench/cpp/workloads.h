// The benchmark's four workloads and the metrics they report.
//
//   paper_cold   all registered studies as one run_batch, 4 threads, against
//                an empty directory cache (the documented reproduction run)
//   det_cold     table2's grid under ALGO and CONTROL only — no shuffled
//                GEMM launch; the bypass workload for a shuffled-path change
//   warm_replay  the paper_cold batch replayed against a 2-shard map of
//                nnr_cached daemons filled during set-up (trained=0)
//   fleet        fig2 drained by an in-process coordinator and two workers
//                through one daemon, in waves from an empty daemon dir
//
// The workload seed sets TrainJob::base_seed of every cell in the cold and
// replay workloads and the poll-jitter seeds in fleet; the library sees only
// the generated plans. README.md in this directory has the metric table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;      // print reference digests instead of checking
  std::string cached_bin;   // the built nnr_cached
  std::string work_dir;     // scratch for cache dirs (inside the checkout)
  std::string refs_path;    // recorded reference digests
  std::string trace_path;   // Chrome trace output (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // one line per failed check
  std::vector<std::string> reference_lines;  // --record output
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload end to end. Throws std::runtime_error on a set-up
/// failure (no daemon binary, unknown workload).
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench

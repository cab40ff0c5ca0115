// nnr_perfbench: the study benchmark's entry point. Normally run through
// perfbench/run.py, which builds it first:
//
//   nnr_perfbench --workload paper_cold --seed 24301 --seconds 15 --trace 0
//       --cached .bench_build/nnr/tools/nnr_cached --work-dir .bench_run
//       --refs perfbench/references.txt [--trace-out FILE] [--record]
//
// Diagnostics go to stderr; the last stdout line is one JSON object with
// "correct", "attempted", "failed" and "metrics" (the end-to-end metrics,
// or with --trace 1 the per-layer ones). --record prints reference digest
// lines for references.txt before the JSON line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "runtime/parse_int.h"
#include "workloads.h"

extern char** environ;

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "nnr_perfbench: %s\nusage: nnr_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --cached PATH --work-dir DIR --refs "
               "FILE [--trace-out FILE] [--record]\n",
               message);
  std::exit(2);
}

/// The benchmark fixes the library's environment: quick scale and nothing
/// else, whatever the caller's NNR_* variables say.
void reset_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NNR_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("NNR_QUICK", "1", 1);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("flag needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const auto seed = nnr::runtime::parse_int_strict(value().c_str());
      if (!seed || *seed < 0) usage("--seed needs a non-negative integer");
      o.seed = static_cast<std::uint64_t>(*seed);
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      o.trace = t == "1";
    } else if (arg == "--cached") {
      o.cached_bin = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--refs") {
      o.refs_path = value();
    } else if (arg == "--trace-out") {
      o.trace_path = value();
    } else if (arg == "--record") {
      o.record = true;
    } else {
      usage("unknown flag");
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) usage("unknown --workload");
  if (!have_seed || o.cached_bin.empty() || o.work_dir.empty() ||
      o.refs_path.empty()) {
    usage("--seed, --cached, --work-dir and --refs are required");
  }
  reset_environment();

  perfbench::Report report;
  try {
    report = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nnr_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", p.c_str());
  }
  for (const std::string& line : report.reference_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

// Golden study digests: the numerics of every registered study, pinned
// across commits.
//
// Each study trains at quick scale with every cell's base seed at 24301 (the
// registry's own plans), and two digests are recomputed exactly as the study
// benchmark defines them (perfbench/cpp/workloads.cc):
//   cells: 64-bit FNV-1a over each replicate's encode_run_result bytes,
//          stamped with its cell key, in cell and replicate order;
//   table: 64-bit FNV-1a over the study's rendered table.
// They are compared with the "paper_cold 24301" rows of
// perfbench/references.txt, whose path is the first argument. That file is
// the one source of truth: this test reads it and never writes it.
//
//   nnr_study_golden perfbench/references.txt
//
// The whole registry runs as one 4-thread batch, and fig2 again at 1 thread,
// so a kernel change that moves any bit of any study, at either thread
// count, fails here and names the study.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/study.h"
#include "core/table.h"
#include "runtime/thread_pool.h"
#include "sched/cell_key.h"
#include "sched/registry.h"
#include "sched/scheduler.h"
#include "serialize/run_result.h"

extern char** environ;

namespace {

using nnr::sched::Cell;
using nnr::sched::CellKey;
using nnr::sched::StudyPlan;

constexpr std::uint64_t kSeed = 24301;

const char* g_refs_path = nullptr;

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
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Digest {
  std::string cells;
  std::string table;
};

/// study id -> digests of the "paper_cold 24301" rows.
std::map<std::string, Digest> load_references() {
  std::map<std::string, Digest> refs;
  std::ifstream in(g_refs_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, study;
    Digest d;
    if (fields >> workload >> seed >> study >> d.cells >> d.table &&
        workload == "paper_cold" && seed == std::to_string(kSeed)) {
      refs[study] = d;
    }
  }
  return refs;
}

/// The rows and rendering nnr_run --study prints, as the benchmark renders
/// them.
std::string render_table(const nnr::sched::StudyDef& def,
                         const StudyPlan& plan,
                         const nnr::sched::StudyResult& result) {
  nnr::core::TextTable table({"Task", "Device", "Variant", "Mean acc %",
                              "STDDEV(Acc) %", "Churn %", "L2 Norm"});
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const Cell& cell = plan.cells()[c];
    const nnr::core::VariantSummary s =
        nnr::core::summarize(result.cells[c]);
    table.add_row({cell.task_name, cell.job.device.name,
                   std::string(nnr::core::variant_name(cell.job.variant)),
                   nnr::core::fmt_float(s.accuracy_pct(), 2),
                   nnr::core::fmt_float(s.accuracy_stddev_pct(), 3),
                   nnr::core::fmt_float(s.churn_pct(), 2),
                   nnr::core::fmt_float(s.mean_l2, 4)});
  }
  return table.render("study " + plan.name() + " (" + def.description + ")") +
         "\n";
}

Digest digest(const nnr::sched::StudyDef& def, const StudyPlan& plan,
              const nnr::sched::StudyResult& result) {
  std::uint64_t h = fnv1a("");
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const Cell& cell = plan.cells()[c];
    for (std::int64_t r = 0; r < cell.replicates; ++r) {
      const CellKey key = cell.cacheable()
                              ? nnr::sched::cell_key(cell, cell.ids_for(r))
                              : CellKey{};
      h = fnv1a(nnr::serialize::encode_run_result(
                    result.cells[c][static_cast<std::size_t>(r)], key.hi,
                    key.lo),
                h);
    }
  }
  return {hex64(h), hex64(fnv1a(render_table(def, plan, result)))};
}

/// Trains the named studies as one batch on a `threads`-wide pool (no
/// cache) and checks each against its reference row.
void expect_studies_match(const std::vector<std::string>& ids, int threads) {
  const std::map<std::string, Digest> refs = load_references();
  ASSERT_FALSE(refs.empty()) << "no paper_cold " << kSeed << " rows in "
                             << g_refs_path;
  std::vector<const nnr::sched::StudyDef*> defs;
  std::vector<StudyPlan> plans;
  for (const std::string& id : ids) {
    const nnr::sched::StudyDef* def = nnr::sched::find_study(id);
    ASSERT_NE(def, nullptr) << "unknown study " << id;
    ASSERT_TRUE(refs.contains(id)) << "no reference row for study " << id;
    defs.push_back(def);
    plans.push_back(def->make_plan());
    for (Cell& c : plans.back().cells()) c.job.base_seed = kSeed;
  }
  std::vector<const StudyPlan*> ptrs;
  for (const StudyPlan& p : plans) ptrs.push_back(&p);

  nnr::runtime::ThreadPool::set_global_threads(threads);
  nnr::sched::RunOptions run;
  run.threads = threads;
  const nnr::sched::BatchResult batch = nnr::sched::run_batch(ptrs, run);
  nnr::runtime::ThreadPool::set_global_threads(0);

  ASSERT_EQ(batch.studies.size(), plans.size());
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const Digest got = digest(*defs[p], plans[p], batch.studies[p]);
    const Digest& want = refs.at(ids[p]);
    EXPECT_EQ(got.cells, want.cells)
        << "study " << ids[p] << " moved: replicate bytes differ at "
        << threads << " thread(s)";
    EXPECT_EQ(got.table, want.table)
        << "study " << ids[p] << " moved: rendered table differs at "
        << threads << " thread(s)";
  }
}

TEST(StudyGolden, EveryStudyAtFourThreadsMatchesReferences) {
  std::vector<std::string> ids;
  for (const nnr::sched::StudyDef& def : nnr::sched::study_registry()) {
    ids.push_back(def.id);
  }
  expect_studies_match(ids, 4);
}

TEST(StudyGolden, Fig2AtOneThreadMatchesReferences) {
  expect_studies_match({"fig2"}, 1);
}

/// The digests hold at quick scale and nothing else, whatever the caller's
/// NNR_* variables say.
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
  reset_environment();
  ::testing::InitGoogleTest(&argc, argv);
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s REFERENCES_TXT\n", argv[0]);
    return 2;
  }
  g_refs_path = argv[1];
  return RUN_ALL_TESTS();
}

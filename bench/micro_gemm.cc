// Micro benchmarks for the tensor fast path: GEMM (blocked engine vs the
// seed reference loop, per accumulation order and B layout), transpose,
// im2col, col2im, and a Conv2D forward/backward step at paper-relevant
// shapes.
// Emits BENCH_tensor.json (path = argv[1], default ./BENCH_tensor.json) so
// the repo's perf trajectory is recorded and regressions are visible in CI.
//
// Each row is the median of kRounds rounds, a round being the mean over
// `reps` calls, so a burst of host load that slows one or two rounds does
// not move the row.
// NNR_QUICK shrinks shapes and repetitions to smoke-test scale.
// NNR_THREADS sizes the host pool; the thread-scaling rows resize it
// explicitly per measurement.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/env.h"
#include "hw/device.h"
#include "hw/execution_context.h"
#include "nn/conv2d.h"
#include "rng/generator.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace {

using nnr::tensor::AccumOrder;
using nnr::tensor::KernelPolicy;
using nnr::tensor::Shape;
using nnr::tensor::Tensor;

struct Row {
  std::string name;
  std::string shape;
  int threads = 1;
  double ns_per_step = 0.0;
  double gflops = 0.0;          // 0 for pure data-movement kernels
  double speedup_vs_ref = 0.0;  // 0 when there is no reference pairing
};

constexpr int kRounds = 5;

/// Median over kRounds rounds of the mean ns per call across `reps` calls.
template <typename Fn>
double ns_per_step(Fn&& fn, int reps) {
  fn();  // warmup (and first-touch of any scratch)
  std::array<double, kRounds> rounds{};
  for (double& mean_ns : rounds) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    mean_ns = static_cast<double>(ns) / reps;
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[kRounds / 2];
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  nnr::rng::Generator gen(seed);
  Tensor t(shape);
  for (float& v : t.data()) v = gen.uniform(-1.0F, 1.0F);
  return t;
}

std::string dims(std::initializer_list<std::int64_t> ds) {
  std::string s;
  for (std::int64_t d : ds) {
    if (!s.empty()) s += "x";
    s += std::to_string(d);
  }
  return s;
}

void emit_json(const std::string& path, const std::vector<Row>& rows,
               bool quick) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tensor\",\n");
  std::fprintf(f, "  \"generated_by\": \"bench_micro_gemm\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"rounds\": %d,\n", kRounds);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                 "\"ns_per_step\": %.1f, \"gflops\": %.3f, "
                 "\"speedup_vs_reference\": %.2f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.threads, r.ns_per_step,
                 r.gflops, r.speedup_vs_ref, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = nnr::core::quick_mode();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_tensor.json";
  const std::int64_t gemm_dim = quick ? 64 : 256;
  const int reps = quick ? 2 : 10;
  std::vector<Row> rows;

  nnr::rng::Generator entropy(8);
  const KernelPolicy seq{
      .order = AccumOrder::kSequential, .cuda_cores = 0, .entropy = nullptr};
  const KernelPolicy tree{.order = AccumOrder::kPairwiseTree,
                          .cuda_cores = 5120,
                          .entropy = nullptr};
  const KernelPolicy shuffled{.order = AccumOrder::kShardedShuffled,
                              .cuda_cores = 5120,
                              .entropy = &entropy};

  // --- GEMM: blocked engine vs seed loop, single thread. -------------------
  {
    const std::int64_t d = gemm_dim;
    const Tensor a = random_tensor(Shape{d, d}, 1);
    const Tensor b = random_tensor(Shape{d, d}, 2);
    Tensor c(Shape{d, d});
    const double flops = 2.0 * static_cast<double>(d) * d * d;
    const std::string shape = dims({d, d, d});
    auto record = [&](const std::string& name, int threads, double ns,
                      double ref_ns) {
      rows.push_back({name, shape, threads, ns, flops / ns,
                      ref_ns > 0.0 ? ref_ns / ns : 0.0});
      std::printf("%-28s %s  %10.0f ns  %6.2f GFLOP/s  threads=%d",
                  name.c_str(), shape.c_str(), ns, flops / ns, threads);
      if (ref_ns > 0.0) std::printf("  (%.2fx vs reference)", ref_ns / ns);
      std::printf("\n");
    };
    nnr::runtime::ThreadPool::set_global_threads(1);
    struct {
      const char* name;
      const KernelPolicy* policy;
      double ref_ns;
    } variants[] = {{"gemm_seq", &seq, 0.0},
                    {"gemm_tree", &tree, 0.0},
                    {"gemm_shuffled", &shuffled, 0.0}};
    for (auto& v : variants) {
      v.ref_ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt_reference(a, b, c, *v.policy); }, reps);
      const double fast_ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt(a, b, c, *v.policy); }, reps);
      record(std::string(v.name) + "_reference", 1, v.ref_ns, 0.0);
      record(std::string(v.name) + "_blocked", 1, fast_ns, v.ref_ns);
    }

    // --- B read as [k, n] in place (the backward-pass lowering). -----------
    // The speedup is against the same order's seed loop on [n, k] B.
    record("gemm_nn_tree", 1,
           ns_per_step([&] { nnr::tensor::gemm_nn(a, b, c, tree); }, reps),
           variants[1].ref_ns);
    record("gemm_nn_shuffled", 1,
           ns_per_step([&] { nnr::tensor::gemm_nn(a, b, c, shuffled); }, reps),
           variants[2].ref_ns);

    // --- Thread scaling of the blocked engine (1 thread is gemm_tree_blocked).
    for (int threads : {2, 4}) {
      nnr::runtime::ThreadPool::set_global_threads(threads);
      record("gemm_tree_blocked_threads" + std::to_string(threads), threads,
             ns_per_step([&] { nnr::tensor::gemm_nt(a, b, c, tree); }, reps),
             variants[1].ref_ns);
    }
    nnr::runtime::ThreadPool::set_global_threads(0);
  }

  // --- GEMM at the studies' costliest shapes (m x n x k), single thread. ---
  // The conv forwards and dcols read B as [k, n] (gemm_nn); the dW GEMM
  // contracts over the pixels with B as [n, k] (gemm_nt), 40 lanes at 5120
  // cores. Full size at any scale: these are the launches training makes.
  {
    struct StudyShape {
      const char* name;
      std::int64_t m, n, k;
      bool b_kn;
    };
    const StudyShape shapes[] = {{"study_conv_fwd_c8", 8, 8192, 72, true},
                                 {"study_conv_dcols_c8", 72, 8192, 8, true},
                                 {"study_conv_fwd_c16", 16, 2048, 144, true},
                                 {"study_conv_fwd_c32", 32, 512, 288, true},
                                 {"study_conv_dw_c8", 8, 72, 8192, false}};
    nnr::runtime::ThreadPool::set_global_threads(1);
    for (const StudyShape& s : shapes) {
      const Tensor a = random_tensor(Shape{s.m, s.k}, 9);
      const Tensor b = random_tensor(
          s.b_kn ? Shape{s.k, s.n} : Shape{s.n, s.k}, 10);
      Tensor c(Shape{s.m, s.n});
      const double flops = 2.0 * static_cast<double>(s.m) * s.n * s.k;
      const std::string shape = dims({s.m, s.n, s.k});
      for (const auto& [order, policy] :
           {std::pair{"seq", &seq}, std::pair{"shuffled", &shuffled}}) {
        const double ns = ns_per_step(
            [&] {
              if (s.b_kn) {
                nnr::tensor::gemm_nn(a, b, c, *policy);
              } else {
                nnr::tensor::gemm_nt(a, b, c, *policy);
              }
            },
            reps);
        const std::string name = std::string(s.name) + "_" + order;
        rows.push_back({name, shape, 1, ns, flops / ns, 0.0});
        std::printf("%-28s %s  %10.0f ns  %6.2f GFLOP/s  threads=1\n",
                    name.c_str(), shape.c_str(), ns, flops / ns);
      }
    }
    nnr::runtime::ThreadPool::set_global_threads(0);
  }

  // The data-movement and conv rows run on the default pool (NNR_THREADS).
  const int pool_threads = nnr::runtime::ThreadPool::global().size();

  // --- Transpose at a Conv2D::backward-like shape (patch x pixels). --------
  {
    const std::int64_t r = quick ? 288 : 1152;  // 128 * 3 * 3
    const std::int64_t cdim = quick ? 512 : 2048;
    const Tensor in = random_tensor(Shape{r, cdim}, 3);
    Tensor out(Shape{cdim, r});
    const double ns =
        ns_per_step([&] { nnr::tensor::transpose(in, out); }, reps);
    rows.push_back({"transpose", dims({r, cdim}), pool_threads, ns, 0.0, 0.0});
    std::printf("%-28s %s  %10.0f ns\n", "transpose", dims({r, cdim}).c_str(),
                ns);
  }

  // --- im2col, col2im + Conv2D step at the paper's CIFAR block shape. ------
  {
    const std::int64_t batch = quick ? 8 : 32;
    const nnr::tensor::ConvGeometry g{.batch = batch,
                                      .in_channels = 16,
                                      .in_h = 32,
                                      .in_w = 32,
                                      .kernel = 3,
                                      .stride = 1,
                                      .pad = 1};
    const Tensor input =
        random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, 4);
    const std::string shape = dims({batch, g.in_channels, g.in_h, g.in_w});
    Tensor cols(Shape{g.patch_size(), g.out_pixels()});
    const double ns =
        ns_per_step([&] { nnr::tensor::im2col(input, g, cols); }, reps);
    rows.push_back({"im2col_k3s1p1", shape, pool_threads, ns, 0.0, 0.0});
    std::printf("%-28s %s  %10.0f ns\n", "im2col_k3s1p1", shape.c_str(), ns);
    Tensor grad(input.shape());
    const double col2im_ns =
        ns_per_step([&] { nnr::tensor::col2im(cols, g, grad); }, reps);
    rows.push_back(
        {"col2im_k3s1p1", shape, pool_threads, col2im_ns, 0.0, 0.0});
    std::printf("%-28s %s  %10.0f ns\n", "col2im_k3s1p1", shape.c_str(),
                col2im_ns);

    nnr::hw::ExecutionContext hw_ctx(nnr::hw::v100(),
                                     nnr::hw::DeterminismMode::kDeterministic,
                                     nnr::rng::Generator(5));
    nnr::tensor::Workspace workspace;
    nnr::nn::RunContext ctx{.hw = &hw_ctx,
                            .training = true,
                            .dropout = nullptr,
                            .workspace = &workspace};
    nnr::nn::Conv2D conv(16, 32, 3, 1, 1);
    nnr::rng::Generator init(6);
    conv.init_weights(init);
    const Tensor grad_out = random_tensor(Shape{batch, 32, 32, 32}, 7);
    const double fwd_ns = ns_per_step(
        [&] { (void)conv.forward(input, ctx); }, reps);
    const double bwd_ns = ns_per_step(
        [&] {
          (void)conv.forward(input, ctx);
          (void)conv.backward(grad_out, ctx);
        },
        reps);
    rows.push_back({"conv2d_forward", shape, pool_threads, fwd_ns, 0.0, 0.0});
    rows.push_back({"conv2d_fwd_bwd", shape, pool_threads, bwd_ns, 0.0, 0.0});
    std::printf("%-28s %s  %10.0f ns\n", "conv2d_forward", shape.c_str(),
                fwd_ns);
    std::printf("%-28s %s  %10.0f ns\n", "conv2d_fwd_bwd", shape.c_str(),
                bwd_ns);
  }

  emit_json(out_path, rows, quick);
  return 0;
}

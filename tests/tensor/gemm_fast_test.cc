// Determinism suite for the blocked GEMM engine and the lowering fast paths.
//
// The contract under test: for every accumulation order the blocked, packed,
// threaded engine must be *bitwise* identical to the seed triple loop
// (gemm_nt_reference), for every shape — including k = 0, k below the unroll
// width, and m/n that are not multiples of the register tile — and for every
// host thread count. Under the shuffled order it must also consume the
// scheduler-entropy stream exactly as the seed loop does (one shuffle draw
// per launch), so paired streams stay in lockstep.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rng/generator.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"
#include "test_util.h"

namespace nnr::tensor {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  rng::Generator gen(seed);
  Tensor t(shape);
  for (float& v : t.data()) v = gen.normal();
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << what << " diverged at flat index " << i;
  }
}

struct GemmCase {
  std::int64_t m, n, k;
};

// Awkward shapes on purpose: k = 0 (below and above the tile-sized cutoff),
// k below the 4-wide unroll, k with a remainder, m/n off the register tile
// grid, row and column vectors, one comfortably blocked shape, and one whose
// B packs in two panel groups, the second ending in a partial panel.
const GemmCase kCases[] = {
    {1, 1, 0},     {8, 8, 0},    {3, 5, 1},    {4, 8, 3},
    {5, 7, 5},     {16, 24, 32}, {13, 17, 129}, {33, 9, 257},
    {64, 64, 64},  {31, 130, 200}, {1, 40, 300}, {300, 1, 9},
    {13, 300, 130},
};

TEST(GemmFastPath, BitwiseEqualToReferenceAllOrders) {
  const AccumOrder orders[] = {AccumOrder::kSequential,
                               AccumOrder::kPairwiseTree,
                               AccumOrder::kShardedShuffled};
  const int core_counts[] = {0, 512, 5120, 100000};  // 1 .. many lanes
  for (const GemmCase& c : kCases) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 11 + c.m);
    const Tensor b = random_tensor(Shape{c.n, c.k}, 23 + c.n);
    for (AccumOrder order : orders) {
      for (int cores : core_counts) {
        // Paired entropy streams: identical per-launch shuffles, and the
        // streams must still agree after the launch.
        rng::Generator entropy_fast(99 + c.k);
        rng::Generator entropy_ref(99 + c.k);
        Tensor fast(Shape{c.m, c.n});
        Tensor ref(Shape{c.m, c.n});
        gemm_nt(
            a, b, fast,
            {.order = order, .cuda_cores = cores, .entropy = &entropy_fast});
        gemm_nt_reference(
            a, b, ref,
            {.order = order, .cuda_cores = cores, .entropy = &entropy_ref});
        expect_bitwise_equal(fast, ref, "gemm fast path");
        ASSERT_EQ(entropy_fast.next_u32(), entropy_ref.next_u32())
            << "entropy streams out of lockstep, m=" << c.m << " n=" << c.n
            << " k=" << c.k << " cores=" << cores;
      }
    }
  }
}

TEST(GemmFastPath, InvariantToHostThreadCount) {
  const Tensor a = random_tensor(Shape{65, 200}, 41);
  const Tensor b = random_tensor(Shape{130, 200}, 43);
  for (AccumOrder order :
       {AccumOrder::kPairwiseTree, AccumOrder::kShardedShuffled}) {
    rng::Generator entropy1(7);
    rng::Generator entropy4(7);
    runtime::ThreadPool::set_global_threads(1);
    Tensor c1(Shape{65, 130});
    gemm_nt(a, b, c1,
            {.order = order, .cuda_cores = 5120, .entropy = &entropy1});
    runtime::ThreadPool::set_global_threads(4);
    Tensor c4(Shape{65, 130});
    gemm_nt(a, b, c4,
            {.order = order, .cuda_cores = 5120, .entropy = &entropy4});
    runtime::ThreadPool::set_global_threads(0);  // restore env default
    expect_bitwise_equal(c1, c4, "gemm across NNR_THREADS");
  }
}

TEST(GemmNn, BitwiseEqualToReferenceOnTransposedBAllOrders) {
  const AccumOrder orders[] = {AccumOrder::kSequential,
                               AccumOrder::kPairwiseTree,
                               AccumOrder::kShardedShuffled};
  const int core_counts[] = {0, 512, 5120, 100000};
  for (const GemmCase& c : kCases) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 13 + c.m);
    const Tensor b_kn = random_tensor(Shape{c.k, c.n}, 29 + c.n);
    Tensor b_nk(Shape{c.n, c.k});
    transpose(b_kn, b_nk);
    for (AccumOrder order : orders) {
      for (int cores : core_counts) {
        rng::Generator entropy_nn(77 + c.k);
        rng::Generator entropy_ref(77 + c.k);
        Tensor nn(Shape{c.m, c.n});
        Tensor ref(Shape{c.m, c.n});
        gemm_nn(a, b_kn, nn,
                {.order = order, .cuda_cores = cores, .entropy = &entropy_nn});
        gemm_nt_reference(
            a, b_nk, ref,
            {.order = order, .cuda_cores = cores, .entropy = &entropy_ref});
        expect_bitwise_equal(nn, ref, "gemm_nn");
        ASSERT_EQ(entropy_nn.next_u32(), entropy_ref.next_u32())
            << "entropy streams out of lockstep, m=" << c.m << " n=" << c.n
            << " k=" << c.k << " cores=" << cores;
      }
    }
  }
}

TEST(GemmNn, InvariantToHostThreadCount) {
  const Tensor a = random_tensor(Shape{65, 200}, 47);
  const Tensor b = random_tensor(Shape{200, 130}, 53);
  for (AccumOrder order :
       {AccumOrder::kPairwiseTree, AccumOrder::kShardedShuffled}) {
    rng::Generator entropy1(9);
    rng::Generator entropy4(9);
    runtime::ThreadPool::set_global_threads(1);
    Tensor c1(Shape{65, 130});
    gemm_nn(a, b, c1,
            {.order = order, .cuda_cores = 5120, .entropy = &entropy1});
    runtime::ThreadPool::set_global_threads(4);
    Tensor c4(Shape{65, 130});
    gemm_nn(a, b, c4,
            {.order = order, .cuda_cores = 5120, .entropy = &entropy4});
    runtime::ThreadPool::set_global_threads(0);
    expect_bitwise_equal(c1, c4, "gemm_nn across NNR_THREADS");
  }
}

// Shapes aimed at the engine's register-tile paths at the AVX-512 width
// (kMr = 4, kNr = 16); at width 8 they land on the same paths or on full
// panels. gemm_nn reads full [k, n] panels in place; gemm_nt packs them.
struct TilePathCase {
  const char* path;
  std::int64_t m, n, k;
};

const TilePathCase kTilePathCases[] = {
    // m % 4 == 0, n % 16 == 0: every tile full, stored straight into C
    // when single-lane.
    {"full in-place panels, direct store", 8, 32, 72},
    // n % 16 == 8: a partial last panel at width 16, a full one at width 8.
    {"partial last panel at width 16", 8, 40, 72},
    // k = 320 splits into 10 lanes at 5120 cores: lane partials combine
    // over in-place panels.
    {"multi-lane over in-place panels", 8, 48, 320},
    // m % 4 == 2: a zero-padded row block over in-place panels.
    {"short row block over in-place panels", 6, 32, 72},
};

TEST(GemmFastPath, TilePathsBitwiseEqualToReferenceAllOrders) {
  const AccumOrder orders[] = {AccumOrder::kSequential,
                               AccumOrder::kPairwiseTree,
                               AccumOrder::kShardedShuffled};
  for (const TilePathCase& c : kTilePathCases) {
    const Tensor a = random_tensor(Shape{c.m, c.k}, 17 + c.m);
    const Tensor b_kn = random_tensor(Shape{c.k, c.n}, 31 + c.n);
    Tensor b_nk(Shape{c.n, c.k});
    transpose(b_kn, b_nk);
    for (AccumOrder order : orders) {
      for (int cores : {0, 5120}) {
        SCOPED_TRACE(testing::Message()
                     << c.path << ": m=" << c.m << " n=" << c.n << " k=" << c.k
                     << " order=" << static_cast<int>(order)
                     << " cores=" << cores);
        rng::Generator entropy_nn(5 + c.k);
        rng::Generator entropy_nt(5 + c.k);
        rng::Generator entropy_ref(5 + c.k);
        Tensor nn(Shape{c.m, c.n});
        Tensor nt(Shape{c.m, c.n});
        Tensor ref(Shape{c.m, c.n});
        gemm_nn(a, b_kn, nn,
                {.order = order, .cuda_cores = cores, .entropy = &entropy_nn});
        gemm_nt(a, b_nk, nt,
                {.order = order, .cuda_cores = cores, .entropy = &entropy_nt});
        gemm_nt_reference(
            a, b_nk, ref,
            {.order = order, .cuda_cores = cores, .entropy = &entropy_ref});
        expect_bitwise_equal(nn, ref, "gemm_nn");
        expect_bitwise_equal(nt, ref, "gemm_nt");
        const std::uint32_t next = entropy_ref.next_u32();
        ASSERT_EQ(entropy_nn.next_u32(), next);
        ASSERT_EQ(entropy_nt.next_u32(), next);
      }
    }
  }
}

TEST(TransposeTiled, MatchesNaiveOnOddShapes) {
  const GemmCase shapes[] = {{1, 1, 0}, {7, 3, 0}, {33, 65, 0}, {129, 50, 0}};
  for (const GemmCase& s : shapes) {
    const Tensor in = random_tensor(Shape{s.m, s.n}, 53 + s.m);
    Tensor out(Shape{s.n, s.m});
    transpose(in, out);
    for (std::int64_t i = 0; i < s.m; ++i) {
      for (std::int64_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(out.at(j, i), in.at(i, j));
      }
    }
  }
}

Tensor transposed(const Tensor& t) {
  Tensor out(Shape{t.shape()[1], t.shape()[0]});
  transpose(t, out);
  return out;
}

// The library lowering against the seed [P, K] oracle: im2col must equal the
// oracle's patch matrix transposed, and col2im of a [K, P] matrix must equal
// the oracle's scatter of its transpose, bit for bit. Random normal addends
// make the per-element sums order-sensitive.
void expect_lowering_matches_seed(const ConvGeometry& g, std::uint64_t seed) {
  const Tensor input =
      random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, seed);
  Tensor cols(Shape{g.patch_size(), g.out_pixels()});
  Tensor cols_naive(Shape{g.out_pixels(), g.patch_size()});
  im2col(input, g, cols);
  testutil::im2col_naive(input, g, cols_naive);
  expect_bitwise_equal(cols, transposed(cols_naive), "im2col");

  const Tensor dcols =
      random_tensor(Shape{g.patch_size(), g.out_pixels()}, seed + 1);
  Tensor grad(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  Tensor grad_naive(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im(dcols, g, grad);
  testutil::col2im_naive(transposed(dcols), g, grad_naive);
  expect_bitwise_equal(grad, grad_naive, "col2im");
}

TEST(Im2colFastPath, BitwiseEqualToNaiveAcrossGeometries) {
  const std::int64_t kernels[] = {1, 3, 5};
  const std::int64_t strides[] = {1, 2};
  const std::int64_t pads[] = {0, 1, 2};
  for (std::int64_t kernel : kernels) {
    for (std::int64_t stride : strides) {
      for (std::int64_t pad : pads) {
        const ConvGeometry g{.batch = 2,
                             .in_channels = 3,
                             .in_h = 11,
                             .in_w = 9,
                             .kernel = kernel,
                             .stride = stride,
                             .pad = pad};
        if (g.out_h() <= 0 || g.out_w() <= 0) continue;
        SCOPED_TRACE(testing::Message() << "k=" << kernel << " s=" << stride
                                        << " p=" << pad);
        expect_lowering_matches_seed(
            g, 61 + static_cast<std::uint64_t>(kernel * 10 + pad));
      }
    }
  }
}

// col2im's (ky desc, kx desc) row adds reproduce the seed scatter's
// per-element order only by the argument in im2col.h. These geometries make
// windows overlap — with stride > 1, with wide kernels and padding, on
// non-square inputs, over several samples — where any other tap order
// changes some sum's bits. Checked at 1 and 4 host threads.
TEST(Im2colFastPath, Col2imKeepsSeedOrderOnOverlappingWindows) {
  const ConvGeometry geometries[] = {
      {.batch = 3, .in_channels = 2, .in_h = 13, .in_w = 10, .kernel = 3,
       .stride = 2, .pad = 1},
      {.batch = 2, .in_channels = 3, .in_h = 12, .in_w = 15, .kernel = 5,
       .stride = 2, .pad = 2},
      {.batch = 2, .in_channels = 2, .in_h = 9, .in_w = 14, .kernel = 7,
       .stride = 1, .pad = 3},
      {.batch = 3, .in_channels = 2, .in_h = 7, .in_w = 11, .kernel = 3,
       .stride = 1, .pad = 1},
  };
  for (const int threads : {1, 4}) {
    runtime::ThreadPool::set_global_threads(threads);
    for (const ConvGeometry& g : geometries) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " k=" << g.kernel
                   << " s=" << g.stride << " p=" << g.pad << " " << g.in_h
                   << "x" << g.in_w);
      expect_lowering_matches_seed(g, 83 + static_cast<std::uint64_t>(g.kernel));
    }
  }
  runtime::ThreadPool::set_global_threads(0);
}

TEST(Im2colFastPath, InvariantToHostThreadCount) {
  const ConvGeometry g{.batch = 3,
                       .in_channels = 4,
                       .in_h = 16,
                       .in_w = 16,
                       .kernel = 3,
                       .stride = 1,
                       .pad = 1};
  const Tensor input =
      random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, 71);
  runtime::ThreadPool::set_global_threads(1);
  Tensor cols1(Shape{g.patch_size(), g.out_pixels()});
  im2col(input, g, cols1);
  Tensor grad1(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im(cols1, g, grad1);
  runtime::ThreadPool::set_global_threads(4);
  Tensor cols4(Shape{g.patch_size(), g.out_pixels()});
  im2col(input, g, cols4);
  Tensor grad4(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  col2im(cols4, g, grad4);
  runtime::ThreadPool::set_global_threads(0);
  expect_bitwise_equal(cols1, cols4, "im2col across NNR_THREADS");
  expect_bitwise_equal(grad1, grad4, "col2im across NNR_THREADS");
}

TEST(Workspace, ReusesStorageForEqualElementCounts) {
  Workspace ws;
  const int owner = 0;
  Tensor& t1 = ws.scratch(&owner, 0, Shape{4, 8});
  t1.fill(7.0F);
  const float* data1 = t1.raw();
  // Same element count, different shape: storage (and contents) persist.
  Tensor& t2 = ws.scratch(&owner, 0, Shape{8, 4});
  EXPECT_EQ(t2.raw(), data1);
  EXPECT_EQ(t2.at(0), 7.0F);
  EXPECT_EQ(t2.shape(), (Shape{8, 4}));
  // Different element count: reallocated and zeroed.
  Tensor& t3 = ws.scratch(&owner, 0, Shape{3, 3});
  EXPECT_EQ(t3.numel(), 9);
  EXPECT_EQ(t3.at(0), 0.0F);
  // Distinct slots are distinct tensors.
  Tensor& other = ws.scratch(&owner, 1, Shape{3, 3});
  EXPECT_NE(other.raw(), t3.raw());
  EXPECT_EQ(ws.slot_count(), 2U);
}

}  // namespace
}  // namespace nnr::tensor

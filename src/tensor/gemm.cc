#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "runtime/thread_pool.h"

namespace nnr::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocked engine, used for every accumulation order.
//
// The engine mirrors the reference reduction semantics exactly:
//   - k is partitioned into the plan's lane chunks via lane_range (shared
//     with accumulate.cc),
//   - within a chunk each output element is accumulated in unrolled_dot's
//     order: four sub-accumulators over k-offsets {0,1,2,3} mod 4 combined
//     as (acc0 + acc1) + (acc2 + acc3), then a sequential tail,
//   - lane partials are combined in ReductionPlan::combine's per-element
//     sequence: the fixed balanced tree for kPairwiseTree, otherwise a zero
//     start plus one add per lane in plan.combine_order() (the identity for
//     kSequential, this launch's shuffled retirement order for
//     kShardedShuffled).
// What changes is only the *schedule*: a kMr x kNr register tile shares every
// A load across kNr columns and every B load across kMr rows, and host
// threads split the output into (panel group, row chunk) tasks. Neither
// affects any per-element floating-point order, so the result is bitwise
// equal to the reference loop. The shuffle itself is drawn once per launch
// by make_plan, before dispatch, so the scheduler-entropy stream advances
// the same way under either kernel.
//
// kNr = 16 under AVX-512, else 8: the host's vector width in floats. Full
// [k, n] panels are read in place (row stride n); only the partial last
// panel and the [n, k] form are packed. Full single-lane tiles are stored
// directly into C. Vector lanes are independent output columns, so neither
// the width nor where a panel or tile lives changes any element's bits.
// ---------------------------------------------------------------------------

// Output rows per register tile. The 4 accumulator banks x kMr rows stay in
// registers: 16 vectors at kMr = 4, while kMr = 8 would take all 32 of
// AVX-512's and spill.
constexpr std::int64_t kMr = 4;
#if defined(__AVX512F__)
constexpr std::int64_t kNr = 16;  // output cols per register tile
#else
constexpr std::int64_t kNr = 8;
#endif
constexpr std::int64_t kTileElems = kMr * kNr;

// B operand of one launch: element (kk, j) of the contraction sits at
// data[j * col_stride + kk * k_stride]. B stored [n, k] has col_stride = k,
// k_stride = 1; B stored [k, n] has col_stride = 1, k_stride = n.
struct BOperand {
  const float* data;
  std::int64_t col_stride;
  std::int64_t k_stride;
};

// Packs the panels of output columns [j0, j0 + cols) that cannot be read in
// place, panel p laid out dst[(p * k + kk) * kNr + jj] so the micro-kernel's
// inner loop loads one contiguous vector per k step. From [k, n] that is only
// a partial last panel; from [n, k] it is every panel. Columns past `cols`
// are zero-filled: a partial last panel then runs through the same
// micro-kernel, and its padded columns are never stored. Pure data movement —
// no arithmetic.
void pack_b(const BOperand& b, std::int64_t k, std::int64_t j0,
            std::int64_t cols, float* dst) noexcept {
  for (std::int64_t p = b.col_stride == 1 ? cols / kNr : 0; p * kNr < cols;
       ++p) {
    const float* b0 = b.data + (j0 + p * kNr) * b.col_stride;
    const std::int64_t nr = std::min(kNr, cols - p * kNr);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* src = b0 + kk * b.k_stride;
      float* row = dst + (p * k + kk) * kNr;
      std::int64_t jj = 0;
      for (; jj < nr; ++jj) row[jj] = src[jj * b.col_stride];
      for (; jj < kNr; ++jj) row[jj] = 0.0F;
    }
  }
}

// Partial dot products of a kMr x kNr tile over the k-range [begin, end),
// reproducing unrolled_dot's accumulation order independently per element.
// `a` is the tile's first A row (rows `lda` apart); `bp` the panel's row 0
// (rows `ldb` apart: kNr when packed, n when read in place from [k, n]);
// `out` the tile's first output row (rows `ldc` apart).
//
// The kNr-wide column axis is one kNr-lane vector: one mul + one add per
// lane, no horizontal operations, so every output element still sees exactly
// the scalar sequence
//   acc_u += a[i+u] * b[i+u]  (u = i mod 4), (acc0+acc1)+(acc2+acc3), tail.
// Lane arithmetic is IEEE float32 identical to the scalar ops — the
// vectorization changes which elements are computed together, never the
// order of additions within an element. (Contraction into FMAs is disabled
// project-wide via -ffp-contract=off, so mul+add stays two roundings in
// both the reference and the blocked engine.)
#if defined(__GNUC__) || defined(__clang__)
using vecf = float __attribute__((vector_size(kNr * sizeof(float))));
#else
// Portable stand-in for the GNU vector type: the same lane-wise operations.
struct vecf {
  float lane[kNr] = {};
  friend vecf operator+(vecf x, const vecf& y) noexcept {
    for (std::int64_t j = 0; j < kNr; ++j) x.lane[j] += y.lane[j];
    return x;
  }
  friend vecf operator*(float s, vecf y) noexcept {
    for (float& e : y.lane) e = s * e;
    return y;
  }
  vecf& operator+=(const vecf& y) noexcept { return *this = *this + y; }
};
#endif

inline vecf load_vec(const float* p) noexcept {
  vecf v;
  std::memcpy(&v, p, sizeof(v));  // unaligned, strict-aliasing safe
  return v;
}

inline void store_vec(float* p, vecf v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

void micro_tile(const float* a, std::int64_t lda, const float* bp,
                std::int64_t ldb, std::int64_t begin, std::int64_t end,
                float* out, std::int64_t ldc) noexcept {
  vecf acc[4][kMr];
  for (auto& bank : acc) {
    for (vecf& v : bank) v = vecf{};
  }
  std::int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    for (int u = 0; u < 4; ++u) {
      const vecf brow = load_vec(bp + (i + u) * ldb);
      for (std::int64_t r = 0; r < kMr; ++r) {
        acc[u][r] += a[r * lda + i + u] * brow;
      }
    }
  }
  vecf res[kMr];
  for (std::int64_t r = 0; r < kMr; ++r) {
    res[r] = (acc[0][r] + acc[1][r]) + (acc[2][r] + acc[3][r]);
  }
  for (; i < end; ++i) {
    const vecf brow = load_vec(bp + i * ldb);
    for (std::int64_t r = 0; r < kMr; ++r) {
      res[r] += a[r * lda + i] * brow;
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) store_vec(out + r * ldc, res[r]);
}

// The seed kernel body: one reduce_dot_strided per output element. It defines
// gemm_nt_reference and serves launches with fewer outputs than one tile.
void gemm_loop(const float* pa, const BOperand& b, float* pc, std::int64_t m,
               std::int64_t n, std::int64_t k,
               const ReductionPlan& plan) noexcept {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row_a = pa + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      pc[i * n + j] = plan.reduce_dot_strided(row_a, b.data + j * b.col_stride,
                                              k, b.k_stride);
    }
  }
}

// Lane partials of one tile (lane l at lane_buf[l * kTileElems]) combined
// into `tile` in ReductionPlan::combine's per-element order. Elements never
// mix, so this is the scalar combine bit-for-bit — just batched.
void combine_lanes(const ReductionPlan& plan, float* lane_buf,
                   float tile[kTileElems]) noexcept {
  if (plan.order() == AccumOrder::kPairwiseTree) {
    // The fixed balanced tree: partials[l] += partials[l + half] per
    // element, level by level.
    int nl = plan.lanes();
    while (nl > 1) {
      const int half = (nl + 1) / 2;
      for (int l = 0; l + half < nl; ++l) {
        float* dst = lane_buf + static_cast<std::int64_t>(l) * kTileElems;
        const float* addend =
            lane_buf + static_cast<std::int64_t>(l + half) * kTileElems;
        for (std::int64_t e = 0; e < kTileElems; ++e) dst[e] += addend[e];
      }
      nl = half;
    }
    std::copy(lane_buf, lane_buf + kTileElems, tile);
    return;
  }
  std::fill(tile, tile + kTileElems, 0.0F);
  for (const std::uint32_t l : plan.combine_order()) {
    const float* partial = lane_buf + static_cast<std::int64_t>(l) * kTileElems;
    for (std::int64_t e = 0; e < kTileElems; ++e) tile[e] += partial[e];
  }
}

// Floats of packed B one task keeps resident (128 KiB): small enough for L2,
// large enough that a small B packs whole and A streams once per launch.
constexpr std::int64_t kPackBudget = 32 * 1024;

void gemm_blocked(const float* pa, const BOperand& b, float* pc,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  const ReductionPlan& plan) {
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const int lanes = plan.lanes();
  const std::int64_t panels = (n + kNr - 1) / kNr;
  const std::int64_t row_blocks = (m + kMr - 1) / kMr;
  // A task takes a group of consecutive panels (as many as fit the budget,
  // at least one), packs those it cannot read in place, and runs its chunk
  // of row blocks against them. Rows split only as far as needed to give
  // every pool thread a few tasks.
  const std::int64_t group = std::clamp<std::int64_t>(
      kPackBudget / std::max<std::int64_t>(1, k * kNr), 1, panels);
  const std::int64_t groups = (panels + group - 1) / group;
  const std::int64_t chunks = std::min(
      row_blocks, (4 * std::int64_t{pool.size()} + groups - 1) / groups);

  // Tasks run group-major, so a worker that receives consecutive tasks (or
  // the whole range, when this launch runs inline inside a pool worker)
  // packs each group once.
  pool.parallel_for(0, groups * chunks, 1, [&](std::int64_t t0,
                                               std::int64_t t1) {
    // Per-thread, grow-only scratch (bodies never nest): the packed group,
    // a zero-padded copy of a short last row block, and one tile's lane
    // partials.
    static thread_local std::vector<float> tl_scratch;
    const std::int64_t panel_elems = k * kNr;
    const std::size_t need = static_cast<std::size_t>(
        (group * kNr + kMr) * k + (lanes > 1 ? lanes * kTileElems : 0));
    if (tl_scratch.size() < need) tl_scratch.resize(need);
    float* packed = tl_scratch.data();
    float* a_pad = packed + group * panel_elems;
    float* lane_buf = a_pad + kMr * k;

    std::int64_t packed_group = -1;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t g = t / chunks;
      const std::int64_t jb_begin = g * group;
      const std::int64_t jb_end = std::min(panels, jb_begin + group);
      if (g != packed_group) {
        pack_b(b, k, jb_begin * kNr, std::min(n, jb_end * kNr) - jb_begin * kNr,
               packed);
        packed_group = g;
      }
      const std::int64_t chunk = t % chunks;
      for (std::int64_t rb = chunk * row_blocks / chunks;
           rb < (chunk + 1) * row_blocks / chunks; ++rb) {
        const std::int64_t i0 = rb * kMr;
        const std::int64_t mr = std::min(kMr, m - i0);
        const float* a = pa + i0 * k;
        if (mr < kMr) {
          // Short last row block: zero rows stand in for the missing ones,
          // and their outputs are never stored.
          std::copy(a, a + mr * k, a_pad);
          std::fill(a_pad + mr * k, a_pad + kMr * k, 0.0F);
          a = a_pad;
        }
        for (std::int64_t jb = jb_begin; jb < jb_end; ++jb) {
          const std::int64_t j0 = jb * kNr;
          const std::int64_t nr = std::min(kNr, n - j0);
          // A full panel of [k, n] B is read in place; any other is packed.
          const bool in_place = b.col_stride == 1 && nr == kNr;
          const float* panel = in_place
                                   ? b.data + j0
                                   : packed + (jb - jb_begin) * panel_elems;
          const std::int64_t ldb = in_place ? b.k_stride : kNr;
          float* c0 = pc + i0 * n + j0;
          if (lanes == 1 && mr == kMr && nr == kNr) {
            micro_tile(a, k, panel, ldb, 0, k, c0, n);
            continue;
          }
          float tile[kTileElems];
          if (lanes == 1) {
            micro_tile(a, k, panel, ldb, 0, k, tile, kNr);
          } else {
            for (int l = 0; l < lanes; ++l) {
              const auto [cb, ce] = lane_range(l, lanes, k);
              micro_tile(a, k, panel, ldb, cb, ce,
                         lane_buf + std::int64_t{l} * kTileElems, kNr);
            }
            combine_lanes(plan, lane_buf, tile);
          }
          for (std::int64_t r = 0; r < mr; ++r) {
            std::copy(tile + r * kNr, tile + r * kNr + nr, c0 + r * n);
          }
        }
      }
    }
  });
}

void gemm(const float* pa, const BOperand& b, float* pc, std::int64_t m,
          std::int64_t n, std::int64_t k, const KernelPolicy& policy) {
  // One plan per launch: the scheduler interleaving is drawn once and
  // applied to every output element, then the next launch redraws it.
  const ReductionPlan plan = policy.make_plan(k);
  // With fewer outputs than one register tile, most of a padded tile would
  // be wasted work. Both paths are bit-exact, so this is a pure perf choice.
  if (m * n < kTileElems) {
    gemm_loop(pa, b, pc, m, n, k, plan);
  } else {
    gemm_blocked(pa, b, pc, m, n, k, plan);
  }
}

// A is [m, k] and C is [m, n]; B holds k x n elements in either layout.
void check_gemm_shapes([[maybe_unused]] const Tensor& a,
                       [[maybe_unused]] const Tensor& b,
                       [[maybe_unused]] const Tensor& c,
                       [[maybe_unused]] bool b_is_kn) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2 &&
         c.shape().rank() == 2);
  assert(b.shape()[b_is_kn ? 0 : 1] == a.shape()[1]);
  assert(c.shape()[0] == a.shape()[0] &&
         c.shape()[1] == b.shape()[b_is_kn ? 1 : 0]);
}

}  // namespace

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c, /*b_is_kn=*/false);
  const std::int64_t k = a.shape()[1];
  gemm(a.raw(), {.data = b.raw(), .col_stride = k, .k_stride = 1}, c.raw(),
       a.shape()[0], b.shape()[0], k, policy);
}

void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c, /*b_is_kn=*/true);
  const std::int64_t n = b.shape()[1];
  gemm(a.raw(), {.data = b.raw(), .col_stride = 1, .k_stride = n}, c.raw(),
       a.shape()[0], n, a.shape()[1], policy);
}

void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       const KernelPolicy& policy) {
  check_gemm_shapes(a, b, c, /*b_is_kn=*/false);
  const std::int64_t k = a.shape()[1];
  gemm_loop(a.raw(), {.data = b.raw(), .col_stride = k, .k_stride = 1},
            c.raw(), a.shape()[0], b.shape()[0], k, policy.make_plan(k));
}

void transpose(const Tensor& in, Tensor& out) {
  assert(in.shape().rank() == 2 && out.shape().rank() == 2);
  const std::int64_t rows = in.shape()[0];
  const std::int64_t cols = in.shape()[1];
  assert(out.shape()[0] == cols && out.shape()[1] == rows);
  const float* pin = in.raw();
  float* pout = out.raw();

  // Square tiles keep both the row-major reads and the column-strided writes
  // inside one cache footprint; a large transpose otherwise touches a fresh
  // line per element.
  constexpr std::int64_t kTile = 32;
  const std::int64_t row_tiles = (rows + kTile - 1) / kTile;
  runtime::ThreadPool::global().parallel_for(
      0, row_tiles, 1, [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const std::int64_t i0 = t * kTile;
          const std::int64_t i_end = std::min(rows, i0 + kTile);
          for (std::int64_t j0 = 0; j0 < cols; j0 += kTile) {
            const std::int64_t j_end = std::min(cols, j0 + kTile);
            for (std::int64_t i = i0; i < i_end; ++i) {
              for (std::int64_t j = j0; j < j_end; ++j) {
                pout[j * rows + i] = pin[i * cols + j];
              }
            }
          }
        }
      });
}

float reduce_sum(std::span<const float> values, const KernelPolicy& policy) {
  const ReductionPlan plan =
      policy.make_plan(static_cast<std::int64_t>(values.size()));
  return plan.reduce(values);
}

void reduce_rows(const Tensor& in, std::span<float> out,
                 const KernelPolicy& policy) {
  assert(in.shape().rank() == 2);
  const std::int64_t rows = in.shape()[0];
  const std::int64_t cols = in.shape()[1];
  assert(static_cast<std::int64_t>(out.size()) == rows);
  const ReductionPlan plan = policy.make_plan(cols);
  const float* pin = in.raw();
  for (std::int64_t r = 0; r < rows; ++r) {
    out[static_cast<std::size_t>(r)] = plan.reduce(
        std::span<const float>(pin + r * cols, static_cast<std::size_t>(cols)));
  }
}

}  // namespace nnr::tensor

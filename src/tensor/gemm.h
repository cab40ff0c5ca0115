// Policy-driven GEMM and reduction kernels.
//
// Every reduction on the training path (matmul inner products, weight-
// gradient accumulation, batch-norm statistics, bias gradients) flows through
// a ReductionPlan so that the simulated device's accumulation-ordering policy
// applies uniformly — exactly the places where cuDNN kernels reduce across
// threads on real hardware.
//
// Layout convention: the canonical kernel is gemm_nt,
//     C[M, N] = A[M, K] · B[N, K]^T
// i.e. both operands are row-major with the contraction axis K contiguous.
// gemm_nn takes B as [K, N] instead. The engine consumes B in kNr-column
// panels (kNr = 16 under AVX-512, else 8): full [K, N] panels are read in
// place with row stride N, and only the partial last panel and the [N, K]
// form are packed, so callers hand over whichever layout they hold rather
// than building a transposed copy. The convolutions' [C*K*K, N*OH*OW] patch
// matrix (tensor/im2col.h) is such a [K, N] operand.
#pragma once

#include <cstdint>

#include "rng/generator.h"
#include "tensor/accumulate.h"
#include "tensor/tensor.h"

namespace nnr::tensor {

/// Per-launch execution policy for a reduction kernel. Aggregates the
/// accumulation order, the device's lane parallelism, and (for
/// nondeterministic orders) the scheduler entropy stream.
struct KernelPolicy {
  AccumOrder order = AccumOrder::kSequential;
  int cuda_cores = 0;                     // 0 => single lane
  rng::Generator* entropy = nullptr;      // required for kShardedShuffled

  [[nodiscard]] ReductionPlan make_plan(std::int64_t k) const {
    return ReductionPlan(order, lanes_for_cores(cuda_cores, k), k, entropy);
  }
};

/// C[M, N] = A[M, K] · B[N, K]^T. C must be preallocated with shape {M, N}.
///
/// Dispatch: every accumulation order runs one register-blocked, host-
/// threaded engine, bitwise identical to gemm_nt_reference by construction —
/// same lane partition, same unrolled accumulator order, same per-element
/// lane combine (the fixed tree, or this launch's shuffled lane order);
/// threading only distributes whole output elements. The register tile is
/// 4 x kNr, kNr = 16 under AVX-512, else 8; its columns are independent
/// vector lanes, so the width moves no bit. Full [K, N] panels are read in
/// place, others are packed, and full single-lane tiles are stored directly
/// into C. The shuffle is drawn once per launch before dispatch, so the
/// entropy stream advances as under the reference loop. Launches with fewer
/// outputs than one register tile run the reference loop itself.
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy);

/// C[M, N] = A[M, K] · B[K, N], with B row-major [K, N]. Bitwise equal to
/// gemm_nt(a, transpose(b)) for every policy: full panels of B are read in
/// place and a partial last one is packed, so no transposed copy is
/// materialized.
void gemm_nn(const Tensor& a, const Tensor& b, Tensor& c,
             const KernelPolicy& policy);

/// The seed triple loop: one reduce_dot_strided per output element. Kept as
/// the semantic definition of gemm_nt — the determinism suite asserts the
/// blocked engine matches it bit-for-bit, and the micro benches report the
/// speedup against it.
void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c,
                       const KernelPolicy& policy);

/// out[j, i] = in[i, j]. out must be preallocated with shape {cols, rows}.
/// Cache-blocked (square tiles) and host-threaded; pure data movement.
void transpose(const Tensor& in, Tensor& out);

/// Sum of all elements of `values` under the policy (one launch).
[[nodiscard]] float reduce_sum(std::span<const float> values,
                               const KernelPolicy& policy);

/// Row-wise sums of a [rows, cols] tensor: out[r] = sum_c in[r, c].
/// One plan (launch) shared by all rows, mirroring a single reduction kernel.
void reduce_rows(const Tensor& in, std::span<float> out,
                 const KernelPolicy& policy);

}  // namespace nnr::tensor

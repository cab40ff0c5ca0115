// im2col / col2im lowering for convolution-as-GEMM.
//
// Forward convolution is lowered to one GEMM over a patch matrix — the same
// "implicit GEMM" strategy cuDNN uses (Chellapilla et al. 2006) — so the
// accumulation-ordering policy applies to convolutions exactly as it does to
// dense layers.
//
// Layout: input NCHW; the patch matrix is [C*KH*KW, N*OH*OW]. Row
// (c, ky, kx) is one tap and runs contiguously along the output pixels
// (n, oy, ox), so im2col writes each (tap, n, oy) run with one copy and
// col2im reads it back with one contiguous row add.
//
// col2im's per-element order is part of the bit-exactness contract: every
// input element receives its addends in the order of the reference scatter
// loop (n, oy, ox, ky, kx). Take a destination (iy, ix). That loop reaches it
// with oy ascending, so ky = iy + pad - oy*stride descends; within one oy, ox
// ascends, so kx descends; and each (ky, kx) reaches it at most once.
// Looping (ky desc, kx desc) outermost therefore delivers the same addends
// in the same order, for any stride and pad.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace nnr::tensor {

struct ConvGeometry {
  std::int64_t batch = 0;
  std::int64_t in_channels = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t kernel = 0;  // square kernels (paper uses 1/3/5/7)
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  [[nodiscard]] std::int64_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::int64_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
  [[nodiscard]] std::int64_t out_pixels() const noexcept {
    return batch * out_h() * out_w();
  }
};

/// Expands `input` (shape {N, C, H, W}) into `cols`
/// (shape {C*K*K, N*OH*OW}). Out-of-bounds taps read as zero.
void im2col(const Tensor& input, const ConvGeometry& geom, Tensor& cols);

/// Scatter-adds `cols` (shape {C*K*K, N*OH*OW}) back into `grad_input`
/// (shape {N, C, H, W}); the inverse of im2col for gradient routing.
/// grad_input is zeroed first.
void col2im(const Tensor& cols, const ConvGeometry& geom, Tensor& grad_input);

}  // namespace nnr::tensor

#include "nn/conv2d.h"

#include <cassert>

#include "nn/init.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/gemm.h"

namespace nnr::nn {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

namespace {

// Workspace slot map for Conv2D (keyed by the layer pointer).
enum ConvSlot : int {
  kCols = 0,    // [P, K] patch matrix; written by forward, read by backward
  kOutPc,       // [P, C] forward GEMM output
  kDyPc,        // [P, C] grad repack
  kDyCp,        // [C, P] grad repack (transposed)
  kDwStage,     // [C, K] weight-gradient staging
  kDCols,       // [P, K] patch-gradient matrix
};

}  // namespace

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad),
      weight_("conv.weight",
              Shape{out_channels, in_channels * kernel * kernel}),
      bias_("conv.bias", Shape{out_channels}) {}

void Conv2D::init_weights(rng::Generator& init_gen) {
  he_normal(init_gen, weight_.value, in_channels_ * kernel_ * kernel_);
  bias_.value.fill(0.0F);
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(kernel_) +
         ", s=" + std::to_string(stride_) + ")";
}

Tensor Conv2D::forward(const Tensor& input, RunContext& ctx) {
  assert(input.shape().rank() == 4 && input.shape()[1] == in_channels_);
  tensor::Workspace& ws = ctx.scratch_arena(fallback_ws_);
  active_ws_ = &ws;
  geom_ = ConvGeometry{.batch = input.shape()[0],
                       .in_channels = in_channels_,
                       .in_h = input.shape()[2],
                       .in_w = input.shape()[3],
                       .kernel = kernel_,
                       .stride = stride_,
                       .pad = pad_};
  const std::int64_t pixels = geom_.out_pixels();
  const std::int64_t patch = geom_.patch_size();
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();

  Tensor& cols = ws.scratch(this, kCols, Shape{pixels, patch});
  tensor::im2col(input, geom_, cols);

  // out_pc[p, c] = <patch p, filter c>
  Tensor& out_pc = ws.scratch(this, kOutPc, Shape{pixels, out_channels_});
  tensor::gemm_nt(cols, weight_.value, out_pc, ctx.hw->matmul_policy());

  // Repack [P, C] -> NCHW and add bias (elementwise; no reduction).
  Tensor output(Shape{geom_.batch, out_channels_, oh, ow});
  const float* src = out_pc.raw();
  const float* b = bias_.value.raw();
  float* dst = output.raw();
  const std::int64_t ohw = oh * ow;
  const std::int64_t out_c = out_channels_;
  runtime::ThreadPool::global().parallel_for(
      0, geom_.batch, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t n = n0; n < n1; ++n) {
          for (std::int64_t p = 0; p < ohw; ++p) {
            const float* row = src + (n * ohw + p) * out_c;
            for (std::int64_t c = 0; c < out_c; ++c) {
              dst[(n * out_c + c) * ohw + p] = row[c] + b[c];
            }
          }
        }
      });
  return output;
}

Tensor Conv2D::backward(const Tensor& grad_output, RunContext& ctx) {
  assert(active_ws_ != nullptr && "backward() before forward()");
  assert(active_ws_ == &ctx.scratch_arena(fallback_ws_) &&
         "forward/backward must run under the same workspace");
  tensor::Workspace& ws = *active_ws_;
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t pixels = geom_.out_pixels();
  const std::int64_t patch = geom_.patch_size();
  assert(grad_output.shape() == (Shape{geom_.batch, out_channels_, oh, ow}));

  Tensor& cols = ws.scratch(this, kCols, Shape{pixels, patch});

  // NCHW -> [P, C] (and its transpose [C, P]) for the two GEMMs below.
  Tensor& dy_pc = ws.scratch(this, kDyPc, Shape{pixels, out_channels_});
  Tensor& dy_cp = ws.scratch(this, kDyCp, Shape{out_channels_, pixels});
  {
    const float* src = grad_output.raw();
    float* pc = dy_pc.raw();
    float* cp = dy_cp.raw();
    const std::int64_t out_c = out_channels_;
    runtime::ThreadPool::global().parallel_for(
        0, geom_.batch, 1, [&](std::int64_t n0, std::int64_t n1) {
          for (std::int64_t n = n0; n < n1; ++n) {
            for (std::int64_t c = 0; c < out_c; ++c) {
              const float* plane = src + (n * out_c + c) * ohw;
              for (std::int64_t p = 0; p < ohw; ++p) {
                pc[(n * ohw + p) * out_c + c] = plane[p];
                cp[c * pixels + n * ohw + p] = plane[p];
              }
            }
          }
        });
  }

  // dW[c, k] = sum_p dy[p, c] * cols[p, k] — contraction over batch*pixels.
  {
    Tensor& dw = ws.scratch(this, kDwStage, Shape{out_channels_, patch});
    tensor::gemm_nn(dy_cp, cols, dw, ctx.hw->matmul_policy());
    tensor::axpy(1.0F, dw.data(), weight_.grad.data());
  }

  // db[c] = sum_p dy[p, c] — a pure reduction (CUDA-core fallback on TC).
  {
    std::vector<float> db(static_cast<std::size_t>(out_channels_));
    tensor::reduce_rows(dy_cp, db, ctx.hw->reduction_policy());
    tensor::axpy(1.0F, db, bias_.grad.data());
  }

  // dcols[p, k] = sum_c dy[p, c] * W[c, k]
  Tensor& dcols = ws.scratch(this, kDCols, Shape{pixels, patch});
  tensor::gemm_nn(dy_pc, weight_.value, dcols, ctx.hw->matmul_policy());

  Tensor grad_input(
      Shape{geom_.batch, in_channels_, geom_.in_h, geom_.in_w});
  tensor::col2im(dcols, geom_, grad_input);
  return grad_input;
}

}  // namespace nnr::nn

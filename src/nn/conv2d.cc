#include "nn/conv2d.h"

#include <algorithm>
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
  kCols = 0,    // [K, P] patch matrix; written by forward, read by backward
  kOutCp,       // [C, P] forward GEMM output
  kDyCp,        // [C, P] grad repack
  kWt,          // [K, C] transposed weights
  kDwStage,     // [C, K] weight-gradient staging
  kDCols,       // [K, P] patch-gradient matrix
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

  Tensor& cols = ws.scratch(this, kCols, Shape{patch, pixels});
  tensor::im2col(input, geom_, cols);

  // out_cp[c, p] = <filter c, patch p>
  Tensor& out_cp = ws.scratch(this, kOutCp, Shape{out_channels_, pixels});
  tensor::gemm_nn(weight_.value, cols, out_cp, ctx.hw->matmul_policy());

  // Repack [C, P] -> NCHW and add bias (elementwise; no reduction): one
  // contiguous run of OH*OW pixels per (n, c).
  Tensor output(Shape{geom_.batch, out_channels_, oh, ow});
  const std::int64_t ohw = oh * ow;
  runtime::ThreadPool::global().parallel_for(
      0, geom_.batch * out_channels_, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const std::int64_t c = i % out_channels_;
          const float* row =
              out_cp.raw() + c * pixels + i / out_channels_ * ohw;
          const float bias = bias_.value.at(c);
          std::transform(row, row + ohw, output.raw() + i * ohw,
                         [bias](float v) { return v + bias; });
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

  Tensor& cols = ws.scratch(this, kCols, Shape{patch, pixels});

  // NCHW -> [C, P] for the GEMMs below: one contiguous run per (n, c).
  Tensor& dy_cp = ws.scratch(this, kDyCp, Shape{out_channels_, pixels});
  runtime::ThreadPool::global().parallel_for(
      0, geom_.batch * out_channels_, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* plane = grad_output.raw() + i * ohw;
          std::copy(plane, plane + ohw,
                    dy_cp.raw() + i % out_channels_ * pixels +
                        i / out_channels_ * ohw);
        }
      });

  // dW[c, k] = sum_p dy[c, p] * cols[k, p] — contraction over batch*pixels.
  Tensor& dw = ws.scratch(this, kDwStage, Shape{out_channels_, patch});
  tensor::gemm_nt(dy_cp, cols, dw, ctx.hw->matmul_policy());
  tensor::axpy(1.0F, dw.data(), weight_.grad.data());

  // db[c] = sum_p dy[c, p] — a pure reduction (CUDA-core fallback on TC).
  std::vector<float> db(static_cast<std::size_t>(out_channels_));
  tensor::reduce_rows(dy_cp, db, ctx.hw->reduction_policy());
  tensor::axpy(1.0F, db, bias_.grad.data());

  // dcols[k, p] = sum_c W[c, k] * dy[c, p]
  Tensor& w_t = ws.scratch(this, kWt, Shape{patch, out_channels_});
  tensor::transpose(weight_.value, w_t);
  Tensor& dcols = ws.scratch(this, kDCols, Shape{patch, pixels});
  tensor::gemm_nn(w_t, dy_cp, dcols, ctx.hw->matmul_policy());

  Tensor grad_input(
      Shape{geom_.batch, in_channels_, geom_.in_h, geom_.in_w});
  tensor::col2im(dcols, geom_, grad_input);
  return grad_input;
}

}  // namespace nnr::nn

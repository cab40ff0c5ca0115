#include "nn/depthwise_conv.h"

#include <algorithm>
#include <cassert>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nnr::nn {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

namespace {

/// Copies `n` runs of `len` floats spaced `src_step` apart to runs spaced
/// `dst_step` apart: one channel's planes between NCHW and [N, 1, H, W].
void copy_runs(const float* src, std::int64_t src_step, float* dst,
               std::int64_t dst_step, std::int64_t n, std::int64_t len) {
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy(src + i * src_step, src + i * src_step + len, dst + i * dst_step);
  }
}

}  // namespace

DepthwiseConv2D::DepthwiseConv2D(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad < 0 ? kernel / 2 : pad),
      weight_("dwconv.weight", Shape{channels, kernel * kernel}),
      bias_("dwconv.bias", Shape{channels}) {}

void DepthwiseConv2D::init_weights(rng::Generator& init_gen) {
  he_normal(init_gen, weight_.value, kernel_ * kernel_);
  bias_.value.fill(0.0F);
}

std::string DepthwiseConv2D::name() const {
  return "DepthwiseConv2D(" + std::to_string(channels_) +
         ", k=" + std::to_string(kernel_) + ", s=" + std::to_string(stride_) +
         ")";
}

Tensor DepthwiseConv2D::forward(const Tensor& input, RunContext& ctx) {
  assert(input.shape().rank() == 4 && input.shape()[1] == channels_);
  const std::int64_t n = input.shape()[0];
  geom_ = ConvGeometry{.batch = n,
                       .in_channels = 1,
                       .in_h = input.shape()[2],
                       .in_w = input.shape()[3],
                       .kernel = kernel_,
                       .stride = stride_,
                       .pad = pad_};
  const std::int64_t pixels = geom_.out_pixels();
  const std::int64_t taps = kernel_ * kernel_;
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t in_hw = geom_.in_h * geom_.in_w;

  Tensor output(Shape{n, channels_, oh, ow});
  Tensor channel(Shape{n, 1, geom_.in_h, geom_.in_w});
  Tensor out_p(Shape{1, pixels});
  Tensor w_row(Shape{1, taps});
  cols_.assign(static_cast<std::size_t>(channels_),
               Tensor(Shape{taps, pixels}));

  const float* w = weight_.value.raw();
  const float* b = bias_.value.raw();
  float* dst = output.raw();
  for (std::int64_t c = 0; c < channels_; ++c) {
    copy_runs(input.raw() + c * in_hw, channels_ * in_hw, channel.raw(), in_hw,
              n, in_hw);
    Tensor& cols = cols_[static_cast<std::size_t>(c)];
    tensor::im2col(channel, geom_, cols);
    for (std::int64_t t = 0; t < taps; ++t) w_row.at(t) = w[c * taps + t];
    // out_p[p] = <filter c, patch p>: one GEMM launch per channel, exactly
    // how depthwise kernels schedule channel-parallel blocks.
    tensor::gemm_nn(w_row, cols, out_p, ctx.hw->matmul_policy());
    for (std::int64_t ni = 0; ni < n; ++ni) {
      float* plane = dst + (ni * channels_ + c) * ohw;
      const float* src_p = out_p.raw() + ni * ohw;
      for (std::int64_t p = 0; p < ohw; ++p) plane[p] = src_p[p] + b[c];
    }
  }
  return output;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_output, RunContext& ctx) {
  const std::int64_t n = geom_.batch;
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t pixels = geom_.out_pixels();
  const std::int64_t taps = kernel_ * kernel_;
  assert(grad_output.shape() == (Shape{n, channels_, oh, ow}));
  assert(static_cast<std::int64_t>(cols_.size()) == channels_);

  Tensor grad_input(Shape{n, channels_, geom_.in_h, geom_.in_w});
  Tensor dy_1p(Shape{1, pixels});
  Tensor dw_row(Shape{1, taps});
  Tensor w_t1(Shape{taps, 1});
  Tensor dcols(Shape{taps, pixels});
  Tensor dchannel(Shape{n, 1, geom_.in_h, geom_.in_w});

  const float* dy = grad_output.raw();
  const float* w = weight_.value.raw();
  float* dw = weight_.grad.raw();
  float* db = bias_.grad.raw();
  float* dx = grad_input.raw();
  const std::int64_t in_hw = geom_.in_h * geom_.in_w;

  for (std::int64_t c = 0; c < channels_; ++c) {
    const Tensor& cols = cols_[static_cast<std::size_t>(c)];
    copy_runs(dy + c * ohw, channels_ * ohw, dy_1p.raw(), ohw, n, ohw);

    // dW[c, t] = sum_p dy[p] * cols[t, p] — the batch*pixels contraction.
    tensor::gemm_nt(dy_1p, cols, dw_row, ctx.hw->matmul_policy());
    for (std::int64_t t = 0; t < taps; ++t) dw[c * taps + t] += dw_row.at(t);

    // db[c] = sum_p dy[p] — a pure reduction.
    db[c] += tensor::reduce_sum(dy_1p.data(), ctx.hw->reduction_policy());

    // dcols[t, p] = W[c, t] * dy[p] (K = 1 contraction).
    for (std::int64_t t = 0; t < taps; ++t) w_t1.at(t, 0) = w[c * taps + t];
    tensor::gemm_nn(w_t1, dy_1p, dcols, ctx.hw->matmul_policy());

    tensor::col2im(dcols, geom_, dchannel);
    copy_runs(dchannel.raw(), in_hw, dx + c * in_hw, channels_ * in_hw, n,
              in_hw);
  }
  return grad_input;
}

}  // namespace nnr::nn

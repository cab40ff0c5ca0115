#include "nn/dense.h"

#include <cassert>

#include "nn/init.h"
#include "tensor/ops.h"
#include "tensor/gemm.h"

namespace nnr::nn {

using tensor::Shape;
using tensor::Tensor;

Dense::Dense(std::int64_t in_features, std::int64_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("dense.weight", Shape{out_features, in_features}),
      bias_("dense.bias", Shape{out_features}) {}

void Dense::init_weights(rng::Generator& init_gen) {
  glorot_uniform(init_gen, weight_.value, in_features_, out_features_);
  bias_.value.fill(0.0F);
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

Tensor Dense::forward(const Tensor& input, RunContext& ctx) {
  assert(input.shape().rank() == 2 && input.shape()[1] == in_features_);
  input_cache_ = input;
  const std::int64_t n = input.shape()[0];

  Tensor output(Shape{n, out_features_});
  tensor::gemm_nt(input, weight_.value, output, ctx.hw->matmul_policy());
  float* out = output.raw();
  const float* b = bias_.value.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < out_features_; ++j) {
      out[i * out_features_ + j] += b[j];
    }
  }
  return output;
}

Tensor Dense::backward(const Tensor& grad_output, RunContext& ctx) {
  tensor::Workspace& ws = ctx.scratch_arena(fallback_ws_);
  const std::int64_t n = input_cache_.shape()[0];
  assert(grad_output.shape() == (Shape{n, out_features_}));

  // dW[o, i] = sum_n dy[n, o] * x[n, i] — contraction over the batch axis.
  Tensor& dy_t = ws.scratch(this, 0, Shape{out_features_, n});
  tensor::transpose(grad_output, dy_t);
  {
    Tensor& dw = ws.scratch(this, 1, Shape{out_features_, in_features_});
    tensor::gemm_nn(dy_t, input_cache_, dw, ctx.hw->matmul_policy());
    tensor::axpy(1.0F, dw.data(), weight_.grad.data());
  }

  // db[o] = sum_n dy[n, o]
  {
    std::vector<float> db(static_cast<std::size_t>(out_features_));
    tensor::reduce_rows(dy_t, db, ctx.hw->reduction_policy());
    tensor::axpy(1.0F, db, bias_.grad.data());
  }

  // dx[n, i] = sum_o dy[n, o] * W[o, i]
  Tensor grad_input(Shape{n, in_features_});
  tensor::gemm_nn(grad_output, weight_.value, grad_input,
                  ctx.hw->matmul_policy());
  return grad_input;
}

}  // namespace nnr::nn

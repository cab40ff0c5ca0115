// DepthwiseConv2D: one k×k filter per channel (MobileNet's separable-conv
// building block; Howard et al. 2017, profiled by the paper in Fig. 8a).
//
// Each channel is lowered independently to im2col + policy-driven GEMM, so
// the accumulation-ordering noise model applies per channel exactly as it
// does to full convolutions. Depthwise kernels contract over only k*k taps
// per output pixel — far fewer addends than a dense conv's C*k*k — which is
// one of the reasons MobileNet shows the smallest deterministic-mode
// overhead in the paper (101% relative GPU time): there is little reduction
// parallelism to restrict.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace nnr::nn {

class DepthwiseConv2D final : public Layer {
 public:
  /// Square kernels; `pad` defaults to "same" padding for stride 1
  /// (pad = k/2) when negative.
  explicit DepthwiseConv2D(std::int64_t channels, std::int64_t kernel = 3,
                           std::int64_t stride = 1, std::int64_t pad = -1);

  /// He-normal weight init (fan-in = k*k) from the init channel; zero bias.
  void init_weights(rng::Generator& init_gen) override;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::vector<Param*> params() override {
    return {&weight_, &bias_};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t kernel() const noexcept { return kernel_; }

 private:
  std::int64_t channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;

  Param weight_;  // [C, k*k]
  Param bias_;    // [C]

  // Per-batch caches for backward: one patch matrix per channel.
  tensor::ConvGeometry geom_{};  // single-channel geometry
  std::vector<tensor::Tensor> cols_;  // [C] of [k*k, P]
};

}  // namespace nnr::nn

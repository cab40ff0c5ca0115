// Dense (fully connected) layer: y = x W^T + b via policy-driven GEMM.
#pragma once

#include <cstdint>

#include "nn/layer.h"

namespace nnr::nn {

class Dense final : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features);

  /// Glorot-uniform weight init from the init channel; zero bias.
  void init_weights(rng::Generator& init_gen) override;

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input,
                                       RunContext& ctx) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output,
                                        RunContext& ctx) override;
  [[nodiscard]] std::vector<Param*> params() override {
    return {&weight_, &bias_};
  }
  [[nodiscard]] std::string name() const override;

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  tensor::Tensor input_cache_;  // [N, in]
  // Gradient transpose / staging scratch when the context has no arena.
  tensor::Workspace fallback_ws_;
};

}  // namespace nnr::nn

// Shared helpers for the test suite.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "hw/execution_context.h"
#include "nn/layer.h"
#include "rng/generator.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace nnr::testutil {

/// A deterministic execution context (V100 in deterministic mode) for tests
/// that need reproducible kernel behaviour.
inline hw::ExecutionContext deterministic_context() {
  return hw::ExecutionContext(hw::v100(), hw::DeterminismMode::kDeterministic,
                              rng::Generator(0));
}

/// A nondeterministic context with a given scheduler-entropy seed.
inline hw::ExecutionContext noisy_context(std::uint64_t entropy_seed) {
  return hw::ExecutionContext(hw::v100(), hw::DeterminismMode::kDefault,
                              rng::Generator(entropy_seed));
}

/// Fills a tensor with reproducible pseudo-random values in [-1, 1].
inline void fill_random(tensor::Tensor& t, std::uint64_t seed) {
  rng::Generator gen(seed);
  for (float& v : t.data()) v = gen.uniform(-1.0F, 1.0F);
}

/// The seed im2col, restated element by element: the [N*OH*OW, C*K*K]
/// patch matrix, one row per output pixel. The oracle the library's [K, P]
/// lowering is checked against.
inline void im2col_naive(const tensor::Tensor& input,
                         const tensor::ConvGeometry& g, tensor::Tensor& cols) {
  float* dst = cols.raw();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h(); ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            const std::int64_t iy = oy * g.stride + ky - g.pad;
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++dst) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              const bool inside =
                  iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
              *dst = inside ? input.at(n, c, iy, ix) : 0.0F;
            }
          }
        }
      }
    }
  }
}

/// The seed col2im: scatter-adds a [N*OH*OW, C*K*K] patch matrix in
/// (n, oy, ox, c, ky, kx) order — the per-element addend order the library's
/// col2im must reproduce bit for bit.
inline void col2im_naive(const tensor::Tensor& cols,
                         const tensor::ConvGeometry& g, tensor::Tensor& grad) {
  grad.fill(0.0F);
  const float* src = cols.raw();
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t oy = 0; oy < g.out_h(); ++oy) {
      for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            const std::int64_t iy = oy * g.stride + ky - g.pad;
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++src) {
              const std::int64_t ix = ox * g.stride + kx - g.pad;
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                grad.at(n, c, iy, ix) += *src;
              }
            }
          }
        }
      }
    }
  }
}

/// Central-difference numerical gradient of a scalar function of `param`.
/// Used to validate every layer's backward pass.
inline std::vector<double> numerical_gradient(
    std::span<float> param, const std::function<double()>& scalar_fn,
    float epsilon = 1e-3F) {
  std::vector<double> grad(param.size());
  for (std::size_t i = 0; i < param.size(); ++i) {
    const float saved = param[i];
    param[i] = saved + epsilon;
    const double up = scalar_fn();
    param[i] = saved - epsilon;
    const double down = scalar_fn();
    param[i] = saved;
    grad[i] = (up - down) / (2.0 * static_cast<double>(epsilon));
  }
  return grad;
}

/// Relative error tolerant comparison for gradient checks: passes when
/// |a-b| <= atol + rtol * max(|a|, |b|).
inline bool close(double a, double b, double rtol = 5e-2, double atol = 1e-3) {
  return std::fabs(a - b) <= atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace nnr::testutil

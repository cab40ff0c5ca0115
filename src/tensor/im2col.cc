#include "tensor/im2col.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "runtime/thread_pool.h"

namespace nnr::tensor {

namespace {

// The output columns [lo, hi) whose tap column `kx` reads an in-bounds input
// column ix = ox * stride + kx - pad in [0, in_w).
std::pair<std::int64_t, std::int64_t> valid_columns(const ConvGeometry& g,
                                                    std::int64_t kx) noexcept {
  const std::int64_t first = g.pad - kx;             // ox * stride >= first
  const std::int64_t last = g.in_w - 1 + g.pad - kx;  // ox * stride <= last
  if (last < 0) return {0, 0};
  const std::int64_t lo =
      first <= 0 ? 0 : std::min(g.out_w(), (first + g.stride - 1) / g.stride);
  return {lo, std::max(lo, std::min(g.out_w(), last / g.stride + 1))};
}

}  // namespace

void im2col(const Tensor& input, const ConvGeometry& geom, Tensor& cols) {
  assert(input.shape().rank() == 4);
  assert(input.shape()[0] == geom.batch && input.shape()[1] == geom.in_channels);
  assert(input.shape()[2] == geom.in_h && input.shape()[3] == geom.in_w);
  assert(cols.shape()[0] == geom.patch_size() &&
         cols.shape()[1] == geom.out_pixels());
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  const std::int64_t kk = geom.kernel * geom.kernel;
  const std::int64_t hw = geom.in_h * geom.in_w;
  const std::int64_t pixels = geom.out_pixels();
  const float* pin = input.raw();
  float* pcols = cols.raw();

  // Tap rows are independent writes — parallelize freely. No floating-point
  // arithmetic happens here, so threading cannot perturb the noise model.
  runtime::ThreadPool::global().parallel_for(
      0, geom.patch_size(), 1, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t c = r / kk;
          const std::int64_t ky = r % kk / geom.kernel;
          const std::int64_t kx = r % geom.kernel;
          const auto [lo, hi] = valid_columns(geom, kx);
          const std::int64_t shift = kx - geom.pad;  // ix = ox * s + shift
          float* dst = pcols + r * pixels;
          for (std::int64_t n = 0; n < geom.batch; ++n) {
            const float* plane = pin + (n * geom.in_channels + c) * hw;
            for (std::int64_t oy = 0; oy < oh; ++oy, dst += ow) {
              const std::int64_t iy = oy * geom.stride + ky - geom.pad;
              if (iy < 0 || iy >= geom.in_h || lo == hi) {
                std::fill(dst, dst + ow, 0.0F);
                continue;
              }
              const float* src = plane + iy * geom.in_w;
              std::fill(dst, dst + lo, 0.0F);
              if (geom.stride == 1) {
                std::memcpy(dst + lo, src + lo + shift,
                            static_cast<std::size_t>(hi - lo) * sizeof(float));
              } else {
                for (std::int64_t ox = lo; ox < hi; ++ox) {
                  dst[ox] = src[ox * geom.stride + shift];
                }
              }
              std::fill(dst + hi, dst + ow, 0.0F);
            }
          }
        }
      });
}

void col2im(const Tensor& cols, const ConvGeometry& geom, Tensor& grad_input) {
  assert(grad_input.shape().rank() == 4);
  assert(cols.shape()[0] == geom.patch_size() &&
         cols.shape()[1] == geom.out_pixels());
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  const std::int64_t hw = geom.in_h * geom.in_w;
  const std::int64_t pixels = geom.out_pixels();
  const float* pcols = cols.raw();
  float* pout = grad_input.raw();

  // Each (n, c) input plane is written by one task, so planes parallelize
  // safely. Within a plane the loop runs (ky desc, kx desc, oy, ox): a fixed
  // destination is hit at most once per tap, and the taps reach it in the
  // seed's (n, oy, ox, ky, kx) order — see im2col.h for why.
  runtime::ThreadPool::global().parallel_for(
      0, geom.batch * geom.in_channels, 1,
      [&](std::int64_t p0, std::int64_t p1) {
        for (std::int64_t plane_idx = p0; plane_idx < p1; ++plane_idx) {
          const std::int64_t n = plane_idx / geom.in_channels;
          const std::int64_t c = plane_idx % geom.in_channels;
          float* plane = pout + plane_idx * hw;
          std::fill(plane, plane + hw, 0.0F);
          for (std::int64_t ky = geom.kernel - 1; ky >= 0; --ky) {
            for (std::int64_t kx = geom.kernel - 1; kx >= 0; --kx) {
              const auto [lo, hi] = valid_columns(geom, kx);
              const std::int64_t r = (c * geom.kernel + ky) * geom.kernel + kx;
              const std::int64_t shift = kx - geom.pad;  // ix = ox * s + shift
              const float* src = pcols + r * pixels + n * oh * ow;
              for (std::int64_t oy = 0; oy < oh; ++oy, src += ow) {
                const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                if (iy < 0 || iy >= geom.in_h) continue;
                float* dst = plane + iy * geom.in_w;
                if (geom.stride == 1) {
                  for (std::int64_t ox = lo; ox < hi; ++ox) {
                    dst[ox + shift] += src[ox];
                  }
                } else {
                  for (std::int64_t ox = lo; ox < hi; ++ox) {
                    dst[ox * geom.stride + shift] += src[ox];
                  }
                }
              }
            }
          }
        }
      });
}

}  // namespace nnr::tensor

// Conv2D and DepthwiseConv2D lower onto a [C*K*K, N*OH*OW] patch matrix,
// and the backward passes of all three GEMM layers read their operands in
// place through gemm_nn / gemm_nt. These tests pin every layer to the seed
// lowering: the [N*OH*OW, C*K*K] patch matrix of the in-test naive
// im2col/col2im (test_util.h), every transposed operand built explicitly
// with transpose(), and every contraction run by gemm_nt_reference. Outputs
// and gradients must agree bit for bit, under a deterministic (CONTROL)
// context and under a shuffled-order (IMPL) context whose entropy stream is
// replayed launch by launch.
#include <gtest/gtest.h>

#include <vector>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise_conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace nnr::nn {
namespace {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;
using testutil::fill_random;

// CONTROL runs the fixed tree; IMPL the per-launch shuffled combine.
hw::ExecutionContext make_context(bool impl) {
  return impl ? testutil::noisy_context(31) : testutil::deterministic_context();
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got.at(i), want.at(i)) << what << " diverged at flat index " << i;
  }
}

Tensor transposed(const Tensor& t) {
  Tensor out(Shape{t.shape()[1], t.shape()[0]});
  tensor::transpose(t, out);
  return out;
}

// The gradient a fresh Param accumulates from one backward: 0 + g.
Tensor accumulated(const Tensor& g) {
  Tensor acc(g.shape());
  tensor::axpy(1.0F, g.data(), acc.data());
  return acc;
}

class GemmLowering : public ::testing::TestWithParam<bool> {};

void expect_conv_matches_seed_lowering(bool impl, std::int64_t stride) {
  const std::int64_t batch = 4, cin = 3, cout = 10, h = 9, w = 7, k = 3;
  const ConvGeometry g{.batch = batch, .in_channels = cin, .in_h = h,
                       .in_w = w, .kernel = k, .stride = stride, .pad = k / 2};
  Conv2D conv(cin, cout, k, stride);
  rng::Generator init(3);
  conv.init_weights(init);
  Tensor x(Shape{batch, cin, h, w});
  fill_random(x, 5);
  Tensor dy(Shape{batch, cout, g.out_h(), g.out_w()});
  fill_random(dy, 7);

  auto hw = make_context(impl);
  RunContext ctx{.hw = &hw, .training = true};
  const Tensor y = conv.forward(x, ctx);
  const Tensor dx = conv.backward(dy, ctx);

  // The seed lowering, replaying the layer's launch sequence.
  auto hw_ref = make_context(impl);
  const std::int64_t pixels = g.out_pixels();
  const std::int64_t ohw = g.out_h() * g.out_w();
  const Tensor& weight = conv.params()[0]->value;
  const Tensor& bias = conv.params()[1]->value;
  Tensor cols(Shape{pixels, g.patch_size()});
  testutil::im2col_naive(x, g, cols);
  Tensor out_pc(Shape{pixels, cout});
  tensor::gemm_nt_reference(cols, weight, out_pc, hw_ref.matmul_policy());
  Tensor y_ref(y.shape());
  Tensor dy_pc(Shape{pixels, cout});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < cout; ++c) {
      for (std::int64_t p = 0; p < ohw; ++p) {
        y_ref.raw()[(n * cout + c) * ohw + p] =
            out_pc.at(n * ohw + p, c) + bias.at(c);
        dy_pc.at(n * ohw + p, c) = dy.raw()[(n * cout + c) * ohw + p];
      }
    }
  }
  const Tensor dy_cp = transposed(dy_pc);
  Tensor dw(Shape{cout, g.patch_size()});
  tensor::gemm_nt_reference(dy_cp, transposed(cols), dw,
                            hw_ref.matmul_policy());
  std::vector<float> db(static_cast<std::size_t>(cout));
  tensor::reduce_rows(dy_cp, db, hw_ref.reduction_policy());
  Tensor dcols(Shape{pixels, g.patch_size()});
  tensor::gemm_nt_reference(dy_pc, transposed(weight), dcols,
                            hw_ref.matmul_policy());
  Tensor dx_ref(x.shape());
  testutil::col2im_naive(dcols, g, dx_ref);

  expect_bitwise_equal(y, y_ref, "conv forward");
  expect_bitwise_equal(conv.params()[0]->grad, accumulated(dw), "conv dW");
  expect_bitwise_equal(conv.params()[1]->grad,
                       accumulated(Tensor(Shape{cout}, db)), "conv db");
  expect_bitwise_equal(dx, dx_ref, "conv dX");
}

TEST_P(GemmLowering, Conv2DGradientsMatchTransposeLowering) {
  for (const std::int64_t stride : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "stride=" << stride);
    expect_conv_matches_seed_lowering(GetParam(), stride);
  }
}

TEST_P(GemmLowering, DenseGradientsMatchTransposeLowering) {
  const std::int64_t batch = 70, in = 37, out = 19;
  Dense dense(in, out);
  rng::Generator init(11);
  dense.init_weights(init);
  Tensor x(Shape{batch, in});
  fill_random(x, 13);
  Tensor dy(Shape{batch, out});
  fill_random(dy, 17);

  auto hw = make_context(GetParam());
  RunContext ctx{.hw = &hw, .training = true};
  (void)dense.forward(x, ctx);
  const Tensor dx = dense.backward(dy, ctx);

  auto hw_ref = make_context(GetParam());
  const Tensor& weight = dense.params()[0]->value;
  Tensor y(Shape{batch, out});
  tensor::gemm_nt_reference(x, weight, y, hw_ref.matmul_policy());
  const Tensor dy_t = transposed(dy);
  Tensor dw(Shape{out, in});
  tensor::gemm_nt_reference(dy_t, transposed(x), dw, hw_ref.matmul_policy());
  std::vector<float> db(static_cast<std::size_t>(out));
  tensor::reduce_rows(dy_t, db, hw_ref.reduction_policy());
  Tensor dx_ref(Shape{batch, in});
  tensor::gemm_nt_reference(dy, transposed(weight), dx_ref,
                            hw_ref.matmul_policy());

  expect_bitwise_equal(dense.params()[0]->grad, accumulated(dw), "dense dW");
  expect_bitwise_equal(dense.params()[1]->grad,
                       accumulated(Tensor(Shape{out}, db)), "dense db");
  expect_bitwise_equal(dx, dx_ref, "dense dX");
}

TEST_P(GemmLowering, DepthwiseGradientsMatchTransposeLowering) {
  const std::int64_t batch = 4, channels = 3, h = 9, w = 7, k = 3;
  DepthwiseConv2D conv(channels, k);
  rng::Generator init(19);
  conv.init_weights(init);
  Tensor x(Shape{batch, channels, h, w});
  fill_random(x, 23);
  Tensor dy(Shape{batch, channels, h, w});
  fill_random(dy, 29);

  auto hw = make_context(GetParam());
  RunContext ctx{.hw = &hw, .training = true};
  const Tensor y = conv.forward(x, ctx);
  const Tensor dx = conv.backward(dy, ctx);

  auto hw_ref = make_context(GetParam());
  const ConvGeometry g{.batch = batch, .in_channels = 1, .in_h = h,
                       .in_w = w, .kernel = k, .stride = 1, .pad = k / 2};
  const std::int64_t pixels = g.out_pixels();
  const std::int64_t taps = k * k;
  const std::int64_t hw_size = h * w;
  const Tensor& weight = conv.params()[0]->value;
  const Tensor& bias = conv.params()[1]->value;
  Tensor y_ref(y.shape());
  std::vector<Tensor> cols(static_cast<std::size_t>(channels),
                           Tensor(Shape{pixels, taps}));
  for (std::int64_t c = 0; c < channels; ++c) {
    Tensor channel(Shape{batch, 1, h, w});
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t p = 0; p < hw_size; ++p) {
        channel.raw()[n * hw_size + p] =
            x.raw()[(n * channels + c) * hw_size + p];
      }
    }
    testutil::im2col_naive(channel, g, cols[static_cast<std::size_t>(c)]);
    Tensor w_row(Shape{1, taps});
    for (std::int64_t t = 0; t < taps; ++t) w_row.at(t) = weight.at(c, t);
    Tensor out_p(Shape{pixels, 1});
    tensor::gemm_nt_reference(cols[static_cast<std::size_t>(c)], w_row, out_p,
                              hw_ref.matmul_policy());
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t p = 0; p < hw_size; ++p) {
        y_ref.raw()[(n * channels + c) * hw_size + p] =
            out_p.at(n * hw_size + p, 0) + bias.at(c);
      }
    }
  }
  Tensor dw(weight.shape());
  Tensor db(Shape{channels});
  Tensor dx_ref(x.shape());
  for (std::int64_t c = 0; c < channels; ++c) {
    Tensor dy_1p(Shape{1, pixels});
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t p = 0; p < hw_size; ++p) {
        dy_1p.at(0, n * hw_size + p) =
            dy.raw()[(n * channels + c) * hw_size + p];
      }
    }
    Tensor dw_row(Shape{1, taps});
    const Tensor& cols_c = cols[static_cast<std::size_t>(c)];
    tensor::gemm_nt_reference(dy_1p, transposed(cols_c), dw_row,
                              hw_ref.matmul_policy());
    for (std::int64_t t = 0; t < taps; ++t) dw.at(c, t) += dw_row.at(t);
    db.at(c) += tensor::reduce_sum(dy_1p.data(), hw_ref.reduction_policy());
    Tensor w_t1(Shape{taps, 1});
    for (std::int64_t t = 0; t < taps; ++t) w_t1.at(t, 0) = weight.at(c, t);
    Tensor dcols(Shape{pixels, taps});
    tensor::gemm_nt_reference(transposed(dy_1p), w_t1, dcols,
                              hw_ref.matmul_policy());
    Tensor dchannel(Shape{batch, 1, h, w});
    testutil::col2im_naive(dcols, g, dchannel);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t p = 0; p < hw_size; ++p) {
        dx_ref.raw()[(n * channels + c) * hw_size + p] =
            dchannel.raw()[n * hw_size + p];
      }
    }
  }

  expect_bitwise_equal(y, y_ref, "depthwise forward");
  expect_bitwise_equal(conv.params()[0]->grad, dw, "depthwise dW");
  expect_bitwise_equal(conv.params()[1]->grad, db, "depthwise db");
  expect_bitwise_equal(dx, dx_ref, "depthwise dX");
}

INSTANTIATE_TEST_SUITE_P(ControlAndImpl, GemmLowering, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Impl" : "Control";
                         });

}  // namespace
}  // namespace nnr::nn

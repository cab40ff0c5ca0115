#include "tensor/im2col.h"

#include <gtest/gtest.h>

namespace nnr::tensor {
namespace {

TEST(ConvGeometry, OutputDims) {
  const ConvGeometry g{.batch = 1,
                       .in_channels = 3,
                       .in_h = 16,
                       .in_w = 16,
                       .kernel = 3,
                       .stride = 1,
                       .pad = 1};
  EXPECT_EQ(g.out_h(), 16);
  EXPECT_EQ(g.out_w(), 16);
  EXPECT_EQ(g.patch_size(), 27);
  EXPECT_EQ(g.out_pixels(), 256);
}

TEST(ConvGeometry, StridedOutputDims) {
  const ConvGeometry g{.batch = 2,
                       .in_channels = 8,
                       .in_h = 8,
                       .in_w = 8,
                       .kernel = 3,
                       .stride = 2,
                       .pad = 1};
  EXPECT_EQ(g.out_h(), 4);
  EXPECT_EQ(g.out_w(), 4);
}

TEST(Im2col, Identity1x1) {
  const ConvGeometry g{.batch = 1,
                       .in_channels = 2,
                       .in_h = 2,
                       .in_w = 2,
                       .kernel = 1,
                       .stride = 1,
                       .pad = 0};
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols(Shape{2, 4});
  im2col(x, g, cols);
  // Pixel (0,0): channels (1, 5); pixel (1,1): channels (4, 8).
  EXPECT_FLOAT_EQ(cols.at(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(cols.at(1, 0), 5.0F);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0F);
  EXPECT_FLOAT_EQ(cols.at(1, 3), 8.0F);
}

TEST(Im2col, PaddingReadsZero) {
  const ConvGeometry g{.batch = 1,
                       .in_channels = 1,
                       .in_h = 2,
                       .in_w = 2,
                       .kernel = 3,
                       .stride = 1,
                       .pad = 1};
  Tensor x(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor cols(Shape{9, 4});
  im2col(x, g, cols);
  // Top-left output pixel: the 3x3 patch centered at (0,0); corners outside.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0F);  // (-1,-1)
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0F);  // center (0,0)
  EXPECT_FLOAT_EQ(cols.at(5, 0), 2.0F);  // (0,1)
  EXPECT_FLOAT_EQ(cols.at(8, 0), 4.0F);  // (1,1)
}

TEST(Im2col, StrideSkipsPixels) {
  const ConvGeometry g{.batch = 1,
                       .in_channels = 1,
                       .in_h = 4,
                       .in_w = 4,
                       .kernel = 1,
                       .stride = 2,
                       .pad = 0};
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x.at(i) = static_cast<float>(i);
  Tensor cols(Shape{1, 4});
  im2col(x, g, cols);
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(cols.at(0, 2), 8.0F);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 10.0F);
}

TEST(Col2im, InverseOfIm2colForDisjointPatches) {
  // kernel=2, stride=2: patches tile the input exactly once, so
  // col2im(im2col(x)) == x.
  const ConvGeometry g{.batch = 1,
                       .in_channels = 1,
                       .in_h = 4,
                       .in_w = 4,
                       .kernel = 2,
                       .stride = 2,
                       .pad = 0};
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x.at(i) = static_cast<float>(i + 1);
  Tensor cols(Shape{4, 4});
  im2col(x, g, cols);
  Tensor back(Shape{1, 1, 4, 4});
  col2im(cols, g, back);
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(back.at(i), x.at(i));
}

TEST(Col2im, OverlappingPatchesAccumulate) {
  // kernel=3, stride=1, pad=1 over constant-one cols: each input pixel
  // receives one contribution per patch covering it (9 in the interior).
  const ConvGeometry g{.batch = 1,
                       .in_channels = 1,
                       .in_h = 5,
                       .in_w = 5,
                       .kernel = 3,
                       .stride = 1,
                       .pad = 1};
  Tensor cols = Tensor::full(Shape{9, 25}, 1.0F);
  Tensor grad(Shape{1, 1, 5, 5});
  col2im(cols, g, grad);
  EXPECT_FLOAT_EQ(grad.at(0, 0, 2, 2), 9.0F);  // interior
  EXPECT_FLOAT_EQ(grad.at(0, 0, 0, 0), 4.0F);  // corner
  EXPECT_FLOAT_EQ(grad.at(0, 0, 0, 2), 6.0F);  // edge
}

TEST(Im2col, MultiBatchLayout) {
  const ConvGeometry g{.batch = 2,
                       .in_channels = 1,
                       .in_h = 2,
                       .in_w = 2,
                       .kernel = 1,
                       .stride = 1,
                       .pad = 0};
  Tensor x(Shape{2, 1, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols(Shape{1, 8});
  im2col(x, g, cols);
  EXPECT_FLOAT_EQ(cols.at(0, 4), 5.0F);  // first pixel of example 1
}

}  // namespace
}  // namespace nnr::tensor

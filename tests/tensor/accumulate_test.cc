// Tests of the reduction-order policies — the IMPL-noise mechanism. These
// pin down the central physical claims: deterministic orders are bitwise
// stable, shuffled orders produce genuine (small) float32 divergence, and
// all orders agree to within rounding.
#include "tensor/accumulate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/generator.h"

namespace nnr::tensor {
namespace {

std::vector<float> awkward_values(std::size_t n, std::uint64_t seed) {
  // Wide dynamic range makes float32 addition visibly non-associative.
  rng::Generator gen(seed);
  std::vector<float> values(n);
  for (float& v : values) {
    v = gen.normal() * std::pow(10.0F, gen.uniform(-3.0F, 3.0F));
  }
  return values;
}

TEST(Accumulate, SequentialIsAFixedFunctionOfLayout) {
  // "Sequential" = the device consumes the buffer in layout order through a
  // fixed accumulator network (the implementation uses a fixed 4-way
  // interleave for ILP). Two reductions of the same buffer must agree
  // bitwise; the value must match the exact sum to rounding.
  const auto values = awkward_values(1000, 1);
  const ReductionPlan a(AccumOrder::kSequential, 1, 1000, nullptr);
  const ReductionPlan b(AccumOrder::kSequential, 1, 1000, nullptr);
  EXPECT_EQ(a.reduce(values), b.reduce(values));
  double exact = 0.0;
  for (float v : values) exact += v;
  EXPECT_NEAR(a.reduce(values), exact, 1e-2 * std::max(1.0, std::fabs(exact)));
}

TEST(Accumulate, SequentialIsSensitiveToInputOrder) {
  // The Fig. 6 mechanism: even a deterministic (layout-order) reduction
  // yields a different float32 value when the inputs are permuted.
  auto values = awkward_values(4096, 42);
  const ReductionPlan plan(AccumOrder::kSequential, 1, 4096, nullptr);
  const float original = plan.reduce(values);
  rng::Generator gen(7);
  bool any_difference = false;
  for (int trial = 0; trial < 8 && !any_difference; ++trial) {
    gen.shuffle(std::span<float>(values));
    any_difference = plan.reduce(values) != original;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Accumulate, PairwiseTreeIsBitwiseReproducible) {
  const auto values = awkward_values(1000, 2);
  const ReductionPlan a(AccumOrder::kPairwiseTree, 32, 1000, nullptr);
  const ReductionPlan b(AccumOrder::kPairwiseTree, 32, 1000, nullptr);
  EXPECT_EQ(a.reduce(values), b.reduce(values));
}

TEST(Accumulate, ShuffledPlansDifferAcrossLaunches) {
  rng::Generator entropy(3);
  const ReductionPlan a(AccumOrder::kShardedShuffled, 16, 64, &entropy);
  const ReductionPlan b(AccumOrder::kShardedShuffled, 16, 64, &entropy);
  EXPECT_NE(std::vector<std::uint32_t>(a.combine_order().begin(),
                                       a.combine_order().end()),
            std::vector<std::uint32_t>(b.combine_order().begin(),
                                       b.combine_order().end()));
}

TEST(Accumulate, ShuffledOrderProducesRoundingDivergence) {
  const auto values = awkward_values(4096, 4);
  rng::Generator entropy(5);
  bool any_difference = false;
  const ReductionPlan reference(AccumOrder::kShardedShuffled, 40, 4096,
                                &entropy);
  const float ref = reference.reduce(values);
  for (int launch = 0; launch < 32 && !any_difference; ++launch) {
    const ReductionPlan plan(AccumOrder::kShardedShuffled, 40, 4096, &entropy);
    any_difference = plan.reduce(values) != ref;
  }
  EXPECT_TRUE(any_difference)
      << "40-lane shuffled reduction never changed the float32 result";
}

TEST(Accumulate, AllOrdersAgreeToRounding) {
  const auto values = awkward_values(2048, 6);
  double exact = 0.0;
  for (float v : values) exact += v;

  rng::Generator entropy(7);
  for (const AccumOrder order :
       {AccumOrder::kSequential, AccumOrder::kPairwiseTree,
        AccumOrder::kShardedShuffled}) {
    const ReductionPlan plan(order, 32, 2048, &entropy);
    const double result = plan.reduce(values);
    EXPECT_NEAR(result, exact, 1e-2 * std::max(1.0, std::fabs(exact)));
  }
}

TEST(Accumulate, DotMatchesManualComputation) {
  std::vector<float> a = {1.0F, 2.0F, 3.0F};
  std::vector<float> b = {4.0F, 5.0F, 6.0F};
  const ReductionPlan plan(AccumOrder::kSequential, 1, 3, nullptr);
  EXPECT_FLOAT_EQ(plan.reduce_dot(a, b), 32.0F);
}

TEST(Accumulate, StridedDotWalksStride) {
  // b laid out with stride 2: use elements 0, 2, 4.
  std::vector<float> a = {1.0F, 1.0F, 1.0F};
  std::vector<float> b = {1.0F, 9.0F, 2.0F, 9.0F, 3.0F};
  const ReductionPlan plan(AccumOrder::kSequential, 1, 3, nullptr);
  EXPECT_FLOAT_EQ(plan.reduce_dot_strided(a.data(), b.data(), 3, 2), 6.0F);
}

TEST(Accumulate, StridedDotSumsInContiguousOrder) {
  // A dot read down a column (stride 3) must equal, bit for bit, the
  // contiguous dot of the same gathered values, for one lane and for many.
  constexpr std::int64_t k = 129;
  constexpr std::int64_t stride = 3;
  rng::Generator gen(17);
  std::vector<float> a(k);
  std::vector<float> b_strided(k * stride);
  for (float& v : a) v = gen.normal();
  for (float& v : b_strided) v = gen.normal();
  std::vector<float> b_gathered(k);
  for (std::int64_t i = 0; i < k; ++i) {
    b_gathered[static_cast<std::size_t>(i)] =
        b_strided[static_cast<std::size_t>(i * stride)];
  }
  for (const int lanes : {1, 4, 7}) {
    const ReductionPlan plan(AccumOrder::kPairwiseTree, lanes, k, nullptr);
    EXPECT_EQ(plan.reduce_dot_strided(a.data(), b_strided.data(), k, stride),
              plan.reduce_dot(a, b_gathered))
        << "lanes=" << lanes;
  }
}

TEST(Accumulate, EmptyReductionIsZero) {
  const ReductionPlan plan(AccumOrder::kPairwiseTree, 8, 0, nullptr);
  EXPECT_EQ(plan.reduce({}), 0.0F);
}

TEST(Accumulate, SingleElement) {
  std::vector<float> one = {42.0F};
  const ReductionPlan plan(AccumOrder::kPairwiseTree, 8, 1, nullptr);
  EXPECT_EQ(plan.reduce(one), 42.0F);
}

TEST(Accumulate, LanesClampToElementCount) {
  rng::Generator entropy(8);
  const ReductionPlan plan(AccumOrder::kShardedShuffled, 64, 5, &entropy);
  EXPECT_LE(plan.lanes(), 5);
}

TEST(Accumulate, SequentialForcesSingleLane) {
  const ReductionPlan plan(AccumOrder::kSequential, 64, 100, nullptr);
  EXPECT_EQ(plan.lanes(), 1);
}

TEST(LanesForCores, ScalesWithCoreCount) {
  // More CUDA cores -> more lanes -> more ordering entropy (the V100 vs
  // P100 effect, paper §3.3).
  EXPECT_GT(lanes_for_cores(5120, 1 << 20), lanes_for_cores(3584, 1 << 20));
  EXPECT_GT(lanes_for_cores(3584, 1 << 20), lanes_for_cores(2560, 1 << 20));
}

TEST(LanesForCores, AtLeastOne) {
  EXPECT_EQ(lanes_for_cores(0, 100), 1);
  EXPECT_EQ(lanes_for_cores(64, 100), 1);
}

TEST(LanesForCores, NeverExceedsElements) {
  EXPECT_LE(lanes_for_cores(5120, 7), 7);
}

// Property sweep: every order, every lane count, sums match the exact value
// to float32 rounding accumulation error.
class AccumulatePropertyTest
    : public ::testing::TestWithParam<std::tuple<AccumOrder, int>> {};

TEST_P(AccumulatePropertyTest, SumWithinRoundingOfExact) {
  const auto [order, lanes] = GetParam();
  const auto values = awkward_values(1024, 99);
  double exact = 0.0;
  for (float v : values) exact += v;
  rng::Generator entropy(11);
  const ReductionPlan plan(order, lanes, 1024, &entropy);
  EXPECT_NEAR(plan.reduce(values), exact,
              1e-2 * std::max(1.0, std::fabs(exact)));
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndLanes, AccumulatePropertyTest,
    ::testing::Combine(::testing::Values(AccumOrder::kSequential,
                                         AccumOrder::kPairwiseTree,
                                         AccumOrder::kShardedShuffled),
                       ::testing::Values(1, 2, 7, 16, 40, 128)));

}  // namespace
}  // namespace nnr::tensor

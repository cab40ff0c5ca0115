#include "tensor/accumulate.h"

#include <algorithm>
#include <cassert>

namespace nnr::tensor {

int lanes_for_cores(int cuda_cores, std::int64_t k) noexcept {
  // One lane per ~128 cores, but never fewer than 32 elements per lane: a
  // real scheduler does not split a small reduction across many blocks (it
  // fits in one warp/block whose order is fixed). The consequence matches
  // observed GPU behaviour: small forward reductions are stable per-launch,
  // while the large weight-gradient / batch-norm reductions carry the
  // scheduler-ordering entropy.
  const int by_cores = std::max(1, cuda_cores / 128);
  const auto by_size = static_cast<int>(std::max<std::int64_t>(1, k / 32));
  return std::min(by_cores, by_size);
}

ReductionPlan::ReductionPlan(AccumOrder order, int lanes, std::int64_t k,
                             rng::Generator* entropy)
    : order_(order), lanes_(std::max(1, lanes)), k_(k) {
  if (k_ > 0 && lanes_ > k_) lanes_ = static_cast<int>(k_);
  if (order_ == AccumOrder::kSequential) lanes_ = 1;
  combine_order_.resize(static_cast<std::size_t>(lanes_));
  for (int i = 0; i < lanes_; ++i) {
    combine_order_[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  }
  if (order_ == AccumOrder::kShardedShuffled) {
    assert(entropy != nullptr &&
           "sharded-shuffled reduction requires a scheduler entropy stream");
    entropy->shuffle(std::span<std::uint32_t>(combine_order_));
  }
}

float ReductionPlan::combine(std::span<float> partials) const noexcept {
  switch (order_) {
    case AccumOrder::kSequential: {
      float acc = 0.0F;
      for (float p : partials) acc += p;
      return acc;
    }
    case AccumOrder::kPairwiseTree: {
      // Fixed balanced binary tree: deterministic regardless of entropy.
      std::size_t n = partials.size();
      while (n > 1) {
        const std::size_t half = (n + 1) / 2;
        for (std::size_t i = 0; i + half < n; ++i) {
          partials[i] += partials[i + half];
        }
        n = half;
      }
      return partials.empty() ? 0.0F : partials[0];
    }
    case AccumOrder::kShardedShuffled: {
      // Combine in the shuffled retirement order of this launch.
      float acc = 0.0F;
      for (std::uint32_t lane : combine_order_) {
        acc += partials[lane];
      }
      return acc;
    }
  }
  return 0.0F;  // unreachable
}

namespace {

// Four-way unrolled partial dot of a[i] and b[i * b_stride] over
// [begin, end). A lane models a thread's private register accumulation;
// splitting it into four fixed interleaved sub-accumulators is still a
// *fixed* order given the input layout (bitwise deterministic), it just
// exposes instruction-level parallelism to the compiler. The final
// sub-accumulator combine order is fixed too, and is the same for every
// stride, so a strided dot (B read down a column of a [k, n] matrix) equals
// the contiguous dot of the same values bit-for-bit.
inline float unrolled_dot(const float* a, const float* b,
                          std::int64_t b_stride, std::int64_t begin,
                          std::int64_t end) noexcept {
  float acc0 = 0.0F, acc1 = 0.0F, acc2 = 0.0F, acc3 = 0.0F;
  std::int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    acc0 += a[i] * b[i * b_stride];
    acc1 += a[i + 1] * b[(i + 1) * b_stride];
    acc2 += a[i + 2] * b[(i + 2) * b_stride];
    acc3 += a[i + 3] * b[(i + 3) * b_stride];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < end; ++i) acc += a[i] * b[i * b_stride];
  return acc;
}

// A sum is the dot with ones: v * 1.0F == v exactly, so sums and dots share
// one accumulation order, and the constant multiply folds away.
inline float unrolled_sum(const float* v, std::int64_t begin,
                          std::int64_t end) noexcept {
  static constexpr float kOne = 1.0F;
  return unrolled_dot(v, &kOne, 0, begin, end);
}

}  // namespace

template <typename LaneSum>
float ReductionPlan::reduce_lanes(LaneSum lane_sum) const noexcept {
  if (k_ == 0) return 0.0F;
  if (lanes_ == 1) return lane_sum(0, k_);
  float partials_buf[512];
  std::vector<float> partials_heap;
  std::span<float> partials;
  if (lanes_ <= 512) {
    partials = std::span<float>(partials_buf, static_cast<std::size_t>(lanes_));
  } else {
    partials_heap.resize(static_cast<std::size_t>(lanes_));
    partials = partials_heap;
  }
  for (int l = 0; l < lanes_; ++l) {
    const auto [begin, end] = lane_range(l, lanes_, k_);
    partials[static_cast<std::size_t>(l)] = lane_sum(begin, end);
  }
  return combine(partials);
}

float ReductionPlan::reduce(std::span<const float> values) const noexcept {
  assert(static_cast<std::int64_t>(values.size()) == k_);
  return reduce_lanes([&](std::int64_t begin, std::int64_t end) {
    return unrolled_sum(values.data(), begin, end);
  });
}

float ReductionPlan::reduce_dot(std::span<const float> a,
                                std::span<const float> b) const noexcept {
  assert(a.size() == b.size());
  return reduce_dot_strided(a.data(), b.data(),
                            static_cast<std::int64_t>(a.size()), 1);
}

float ReductionPlan::reduce_dot_strided(const float* a, const float* b,
                                        std::int64_t k,
                                        std::int64_t b_stride) const noexcept {
  assert(k == k_);
  (void)k;
  return reduce_lanes([&](std::int64_t begin, std::int64_t end) {
    return unrolled_dot(a, b, b_stride, begin, end);
  });
}

}  // namespace nnr::tensor

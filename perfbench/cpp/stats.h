// Order statistics for the benchmark's reported figures.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it (so a "p99" of 40 samples is never a
// single outlier); quartiles follow Python's statistics.quantiles(n=4)
// default ("exclusive") method, so the spreads the benchmark prints agree
// with the ones computed from its JSON output.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median; 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Q1, Q2, Q3 by the exclusive method (statistics.quantiles(v, n=4)).
/// Needs at least two samples; a single sample yields itself three times.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    // Python's formula verbatim: 1-based rank i*(n+1)/4, j clamped to
    // [1, n-1], and the weight taken from the clamped j.
    const std::int64_t j = std::clamp<std::int64_t>(i * (n + 1) / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
         v[static_cast<std::size_t>(j)] * delta) /
        4.0;
  }
  return q;
}

/// Linear-interpolated percentile p in [0, 100]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Samples ranked strictly above percentile p of an n-sample set.
inline std::int64_t samples_beyond(std::int64_t n, double p) {
  const auto at = static_cast<std::int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::max<std::int64_t>(0, n - at);
}

/// The highest of {99.9, 99, 95, 90, 75, 50} not above `cap` that leaves
/// at least ten samples beyond it; 0 when even the median does not.
inline double highest_supported_percentile(std::int64_t n, double cap) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (p <= cap && samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// A tail figure under the ten-beyond rule: the value at
/// highest_supported_percentile(n, cap), or the median when the sample is
/// too small for any. `used` receives the percentile actually reported.
inline double tail(const std::vector<double>& v, double cap, double* used) {
  double p = highest_supported_percentile(static_cast<std::int64_t>(v.size()),
                                          cap);
  if (p == 0.0) p = 50.0;
  if (used != nullptr) *used = p;
  return percentile(v, p);
}

}  // namespace perfbench

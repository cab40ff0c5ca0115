#include "probe.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

/// Side of the square float blocks a matrix chunk multiplies (3 × 36 KiB, so
/// a chunk stays in L2, as the training kernels' tiles do).
constexpr int kN = 96;
/// Floats a streaming chunk reads: 1 MiB slices of a buffer larger than the
/// last-level cache.
constexpr std::size_t kSlice = std::size_t{1} << 18;
constexpr std::size_t kSlices = 32;
/// Chunks per thread in one round, so that a round takes the same time on
/// any thread count; they are handed out dynamically, as the thread pool's
/// tasks are.
constexpr int kChunksPerThread = 256;
/// Rounds kept by one probe however short its budget.
constexpr int kMinRounds = 5;

void fill(std::vector<float>& v, int seed, int mul, int mod, float scale) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>((static_cast<int>(i) * mul + seed) % mod) * scale;
  }
}

/// c += a · b on kN × kN blocks, in the i-k-j order the compiler vectorises.
float matrix_chunk(int seed) {
  std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN, 0.0f);
  fill(a, seed, 7, 13, 0.125f);
  fill(b, seed, 11, 17, 0.0625f);
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const float aik = a[i * kN + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += aik * b[k * kN + j];
    }
  }
  return c[(seed * 31) % (kN * kN)];
}

/// Dot products summed in one fixed order: a chain of dependent adds, as a
/// deterministic reduction is.
float ordered_chunk(int seed) {
  std::vector<float> a(kN * kN), b(kN * kN);
  fill(a, seed, 5, 19, 0.25f);
  fill(b, seed, 3, 23, 0.125f);
  float sum = 0.0f;
  for (int rep = 0; rep < 16; ++rep) {
    for (int i = 0; i < kN * kN; ++i) sum += a[i] * b[i];
  }
  return sum;
}

/// Sorting and a tree map: integer work, branches and allocation.
float branchy_chunk(int seed) {
  std::vector<std::uint32_t> v(2048);
  std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(seed);
  for (std::uint32_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<std::uint32_t>(x);
  }
  std::sort(v.begin(), v.end());
  std::map<std::uint32_t, int> counts;
  for (std::size_t i = 0; i < v.size(); i += 8) ++counts[v[i] % 1000];
  return static_cast<float>(v[7] % 97 + counts.size());
}

/// A sum over one slice of a buffer that does not fit in cache.
float stream_chunk(const std::vector<float>& buffer, int seed) {
  const std::size_t start = static_cast<std::size_t>(seed) % kSlices * kSlice;
  float sum = 0.0f;
  for (std::size_t i = start; i < start + kSlice; ++i) sum += buffer[i] * 0.5f;
  return sum;
}

/// One chunk of probe work. The kinds take turns, so every round mixes
/// vectorised arithmetic, ordered reductions, branchy integer code and
/// memory traffic, as a training step does.
float chunk(const std::vector<float>& buffer, int index) {
  switch (index % 4) {
    case 0: return matrix_chunk(index);
    case 1: return ordered_chunk(index);
    case 2: return branchy_chunk(index);
    default: return stream_chunk(buffer, index);
  }
}

double process_cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

void probe(int threads, double budget_s, std::vector<double>& rounds) {
  // Allocated and touched outside the rounds, and freed at the end: the
  // probe adds nothing to the workload's peak memory.
  const std::vector<float> buffer(kSlice * kSlices, 1.0f);
  const double start = now_s();
  // Round 0 warms the caches and the cores' clocks and is not kept.
  for (int r = 0; r <= kMinRounds || now_s() - start < budget_s; ++r) {
    const int chunks = kChunksPerThread * threads;
    std::atomic<int> next{0};
    std::atomic<float> sink{0.0f};
    const double cpu0 = process_cpu_now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        float sum = 0.0f;
        for (int i = next++; i < chunks; i = next++) sum += chunk(buffer, i);
        sink.store(sum, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : pool) t.join();
    if (r > 0) rounds.push_back((process_cpu_now() - cpu0) / threads);
  }
}

}  // namespace perfbench

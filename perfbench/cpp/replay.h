// Layer-by-layer replay of one training step, for the per-layer split.
//
// For every distinct (task, variant) among a workload's trained cells, the
// replay rebuilds the cell's model, optimizer, data and execution context
// exactly as core::train_replicate does, then runs one step through the
// public layer interface — Model::layer(i).forward / backward, the loss,
// Optimizer::step — with a span around each call (nn, opt, data). It then
// re-issues the tensor kernels those layers launch (gemm_nt, im2col, col2im,
// transpose) at the shapes the step used, under the cell's KernelPolicy, so
// the GEMM time splits by accumulation order. Finally it times
// core::train_replicate on one- and two-batch slices of the dataset: the
// difference is one step as the trainer runs it, the reference for
// trace.coverage_frac.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sched/study_plan.h"
#include "trace.h"

namespace perfbench {

struct ReplayTotals {
  double replay_step_s = 0.0;  // sum over pairs of the replayed step
  double core_step_s = 0.0;    // sum over pairs of the train_replicate step
  double evaluate_s = 0.0;     // sum over pairs of one evaluated batch
  /// Per kernel span name ("tensor.gemm.shuffled", "tensor.col2im", ...):
  /// floating-point operations (GEMM) or bytes moved (data movement), as
  /// computed from the shapes.
  std::map<std::string, double> work;
};

/// Distinct (task, optimizer, toggles) cells, first occurrence kept.
[[nodiscard]] std::vector<const nnr::sched::Cell*> distinct_pairs(
    const std::vector<const nnr::sched::Cell*>& cells);

/// Replays every pair (single-threaded: set the pool to one thread first,
/// as each replicate's kernels run inline on one pool worker in a study).
/// Spans land in `tracer`; nn/opt/data spans are recorded `steps` times per
/// pair, kernels once.
[[nodiscard]] ReplayTotals replay_pairs(
    const std::vector<const nnr::sched::Cell*>& pairs, Tracer& tracer,
    int steps);

}  // namespace perfbench

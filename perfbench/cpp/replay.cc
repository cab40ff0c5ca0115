#include "replay.h"

#include <cstdio>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "core/noise_variant.h"
#include "core/trainer.h"
#include "data/augment.h"
#include "data/batcher.h"
#include "hw/execution_context.h"
#include "nn/loss.h"
#include "opt/sgd.h"
#include "rng/seed_channels.h"
#include "stats.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace perfbench {
namespace {

using nnr::core::ChannelToggles;
using nnr::core::TrainJob;
using nnr::rng::Channel;
using nnr::rng::make_channel_generator;
using nnr::sched::Cell;
using nnr::tensor::ConvGeometry;
using nnr::tensor::Shape;
using nnr::tensor::Tensor;

ChannelToggles toggles_of(const TrainJob& job) {
  return job.toggles_override ? *job.toggles_override
                              : nnr::core::toggles_for(job.variant);
}

std::string pair_key(const Cell& cell) {
  const ChannelToggles t = toggles_of(cell.job);
  std::string key = cell.task_id + '|' + cell.optimizer_id + '|' +
                    cell.runner_id + '|';
  for (const bool b : {t.init_varies, t.shuffle_varies, t.augment_varies,
                       t.dropout_varies, t.scheduler_varies}) {
    key += b ? '1' : '0';
  }
  key += t.mode == nnr::hw::DeterminismMode::kDeterministic ? 'D' : 'N';
  return key;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The per-layer metric family a layer's spans count under.
std::string layer_kind(const std::string& name) {
  if (starts_with(name, "DepthwiseConv2D")) return "depthwise";
  if (starts_with(name, "Conv2D")) return "conv2d";
  if (starts_with(name, "Dense")) return "dense";
  if (starts_with(name, "BatchNorm")) return "batchnorm";
  if (starts_with(name, "GroupNorm")) return "groupnorm";
  if (starts_with(name, "BasicBlock") || starts_with(name, "Bottleneck")) {
    return "residual_block";
  }
  if (name.find("Pool") != std::string::npos) return "pool";
  if (starts_with(name, "Dropout")) return "dropout";
  if (starts_with(name, "Flatten")) return "flatten";
  return "act";  // ReLU, LeakyReLU, SiLU, GELU, Tanh
}

const char* order_name(nnr::tensor::AccumOrder order) {
  switch (order) {
    case nnr::tensor::AccumOrder::kSequential:
      return "seq";
    case nnr::tensor::AccumOrder::kPairwiseTree:
      return "tree";
    case nnr::tensor::AccumOrder::kShardedShuffled:
      return "shuffled";
  }
  return "seq";
}

/// The first `n` examples of a split.
nnr::data::LabeledImages head(const nnr::data::LabeledImages& split,
                              std::int64_t n) {
  std::vector<std::uint32_t> idx(static_cast<std::size_t>(
      std::min<std::int64_t>(n, split.size())));
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  nnr::data::LabeledImages out;
  out.images = nnr::data::gather_images(split.images, idx);
  out.labels = nnr::data::gather_labels(split.labels, idx);
  out.num_classes = split.num_classes;
  return out;
}

/// Re-issues the tensor kernels a layer launches, at its shapes, with one
/// span per kernel call. Mirrors nn/conv2d.cc, nn/dense.cc and
/// nn/depthwise_conv.cc; inputs are constant-filled, since kernel time
/// does not depend on the values.
class KernelReplay {
 public:
  KernelReplay(Tracer& tracer, int parent, std::string request,
               const nnr::tensor::KernelPolicy& policy,
               std::map<std::string, double>& work)
      : tracer_(tracer),
        parent_(parent),
        request_(std::move(request)),
        policy_(policy),
        gemm_name_(std::string("tensor.gemm.") + order_name(policy.order)),
        work_(work) {}

  void conv(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t out_c, std::int64_t k, std::int64_t s,
            std::int64_t pad) {
    const ConvGeometry g{.batch = n, .in_channels = c, .in_h = h, .in_w = w,
                         .kernel = k, .stride = s, .pad = pad};
    const std::int64_t p = g.out_pixels();
    const std::int64_t kk = g.patch_size();
    Tensor input = filled(Shape{n, c, h, w});
    Tensor cols(Shape{p, kk});
    Tensor weight = filled(Shape{out_c, kk});
    Tensor out_pc(Shape{p, out_c});
    im2col(input, g, cols);
    gemm(cols, weight, out_pc);
    // Backward: weight gradient, then data gradient.
    Tensor dy_cp = filled(Shape{out_c, p});
    Tensor dy_pc = filled(Shape{p, out_c});
    Tensor cols_kp(Shape{kk, p});
    Tensor dw(Shape{out_c, kk});
    transpose(cols, cols_kp);
    gemm(dy_cp, cols_kp, dw);
    Tensor w_kc(Shape{kk, out_c});
    transpose(weight, w_kc);
    Tensor dcols(Shape{p, kk});
    gemm(dy_pc, w_kc, dcols);
    col2im(dcols, g, input);
  }

  void dense(std::int64_t n, std::int64_t in, std::int64_t out) {
    Tensor x = filled(Shape{n, in});
    Tensor weight = filled(Shape{out, in});
    Tensor y(Shape{n, out});
    gemm(x, weight, y);
    Tensor dy = filled(Shape{n, out});
    Tensor dy_t(Shape{out, n});
    Tensor x_t(Shape{in, n});
    Tensor dw(Shape{out, in});
    transpose(dy, dy_t);
    transpose(x, x_t);
    gemm(dy_t, x_t, dw);
    Tensor w_t(Shape{in, out});
    transpose(weight, w_t);
    Tensor dx(Shape{n, in});
    gemm(dy, w_t, dx);
  }

  void depthwise(std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w, std::int64_t k, std::int64_t s,
                 std::int64_t pad) {
    const ConvGeometry g{.batch = n, .in_channels = 1, .in_h = h, .in_w = w,
                         .kernel = k, .stride = s, .pad = pad};
    const std::int64_t p = g.out_pixels();
    const std::int64_t taps = k * k;
    Tensor channel = filled(Shape{n, 1, h, w});
    Tensor cols(Shape{p, taps});
    Tensor w_row = filled(Shape{1, taps});
    Tensor out_p(Shape{p, 1});
    Tensor dy_1p = filled(Shape{1, p});
    Tensor dy_p1 = filled(Shape{p, 1});
    Tensor cols_tp(Shape{taps, p});
    Tensor dw_row(Shape{1, taps});
    Tensor w_t1 = filled(Shape{taps, 1});
    Tensor dcols(Shape{p, taps});
    for (std::int64_t ch = 0; ch < c; ++ch) {
      im2col(channel, g, cols);
      gemm(cols, w_row, out_p);
    }
    for (std::int64_t ch = 0; ch < c; ++ch) {
      transpose(cols, cols_tp);
      gemm(dy_1p, cols_tp, dw_row);
      gemm(dy_p1, w_t1, dcols);
      col2im(dcols, g, channel);
    }
  }

 private:
  static Tensor filled(Shape shape) { return Tensor::full(shape, 0.01F); }

  void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
    {
      const ScopedSpan span(&tracer_, gemm_name_, parent_, request_);
      nnr::tensor::gemm_nt(a, b, c, policy_);
    }
    work_[gemm_name_] += 2.0 * static_cast<double>(a.shape()[0]) *
                         static_cast<double>(b.shape()[0]) *
                         static_cast<double>(a.shape()[1]);
  }
  void im2col(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
    {
      const ScopedSpan span(&tracer_, "tensor.im2col", parent_, request_);
      nnr::tensor::im2col(input, g, cols);
    }
    work_["tensor.im2col"] += 4.0 * static_cast<double>(input.numel() +
                                                        cols.numel());
  }
  void col2im(const Tensor& cols, const ConvGeometry& g, Tensor& out) {
    {
      const ScopedSpan span(&tracer_, "tensor.col2im", parent_, request_);
      nnr::tensor::col2im(cols, g, out);
    }
    work_["tensor.col2im"] += 4.0 * static_cast<double>(cols.numel() +
                                                        out.numel());
  }
  void transpose(const Tensor& in, Tensor& out) {
    {
      const ScopedSpan span(&tracer_, "tensor.transpose", parent_, request_);
      nnr::tensor::transpose(in, out);
    }
    work_["tensor.transpose"] += 8.0 * static_cast<double>(in.numel());
  }

  Tracer& tracer_;
  int parent_;
  std::string request_;
  nnr::tensor::KernelPolicy policy_;
  std::string gemm_name_;
  std::map<std::string, double>& work_;
};

/// What the kernel replay needs to know about one top-level layer.
struct LayerShape {
  std::string name;
  Shape in;
  Shape out;
  std::vector<Shape> param_shapes;
};

/// "same"-style padding recovered from the observed output size.
std::int64_t infer_pad(std::int64_t in, std::int64_t out, std::int64_t k,
                       std::int64_t s) {
  for (std::int64_t p = 0; p <= k; ++p) {
    if ((in + 2 * p - k) / s + 1 == out) return p;
  }
  return k / 2;
}

void replay_layer_kernels(const LayerShape& l, KernelReplay& kr) {
  const std::string kind = layer_kind(l.name);
  long a = 0, b = 0, k = 0, s = 0;
  if (kind == "conv2d" &&
      std::sscanf(l.name.c_str(), "Conv2D(%ld->%ld, k=%ld, s=%ld)", &a, &b, &k,
                  &s) == 4) {
    kr.conv(l.in[0], a, l.in[2], l.in[3], b, k, s,
            infer_pad(l.in[2], l.out[2], k, s));
  } else if (kind == "depthwise" &&
             std::sscanf(l.name.c_str(), "DepthwiseConv2D(%ld, k=%ld, s=%ld)",
                         &a, &k, &s) == 3) {
    kr.depthwise(l.in[0], a, l.in[2], l.in[3], k, s,
                 infer_pad(l.in[2], l.out[2], k, s));
  } else if (kind == "dense") {
    kr.dense(l.in[0], l.in[1], l.out[1]);
  } else if (kind == "residual_block") {
    // Sub-convolutions as nn/residual.cc builds them; the stride is the
    // block's spatial reduction, the bottleneck width its first weight's.
    const std::int64_t n = l.in[0], c = l.in[1], h = l.in[2], w = l.in[3];
    const std::int64_t co = l.out[1], oh = l.out[2], ow = l.out[3];
    const std::int64_t st = std::max<std::int64_t>(1, h / oh);
    if (l.name == "BasicBlock") {
      kr.conv(n, c, h, w, co, 3, st, 1);
      kr.conv(n, co, oh, ow, co, 3, 1, 1);
    } else {
      const std::int64_t mid = l.param_shapes.at(0)[0];
      kr.conv(n, c, h, w, mid, 1, 1, 0);
      kr.conv(n, mid, h, w, mid, 3, st, 1);
      kr.conv(n, mid, oh, ow, co, 1, 1, 0);
    }
    if (st != 1 || c != co) kr.conv(n, c, h, w, co, 1, st, 0);
  }
}

double time_train_replicate(const TrainJob& job) {
  const double t0 = now_s();
  const nnr::core::RunResult r =
      nnr::core::train_replicate(job, nnr::core::ReplicateIds{0, 0});
  (void)r;
  return now_s() - t0;
}

}  // namespace

std::vector<const Cell*> distinct_pairs(const std::vector<const Cell*>& cells) {
  std::vector<const Cell*> out;
  std::unordered_set<std::string> seen;
  for (const Cell* cell : cells) {
    if (seen.insert(pair_key(*cell)).second) out.push_back(cell);
  }
  return out;
}

ReplayTotals replay_pairs(const std::vector<const Cell*>& pairs,
                          Tracer& tracer, int steps) {
  ReplayTotals totals;
  for (const Cell* cell : pairs) {
    const TrainJob& job = cell->job;
    const ChannelToggles toggles = toggles_of(job);
    const std::string request = cell->id;
    const std::int64_t batch = job.recipe.batch_size;

    // The replicate's state, built the way core::train_replicate builds it.
    auto init_gen = make_channel_generator(job.base_seed, Channel::kInit, 0,
                                           toggles.init_varies);
    auto shuffle_gen = make_channel_generator(
        job.base_seed, Channel::kShuffle, 0, toggles.shuffle_varies);
    auto augment_gen = make_channel_generator(
        job.base_seed, Channel::kAugment, 0, toggles.augment_varies);
    auto dropout_gen = make_channel_generator(
        job.base_seed, Channel::kDropout, 0, toggles.dropout_varies);
    nnr::hw::ExecutionContext hw(
        job.device, toggles.mode,
        make_channel_generator(job.base_seed, Channel::kScheduler, 0,
                               toggles.scheduler_varies));
    nnr::nn::Model model = job.make_model();
    if (job.warm_start_weights) {
      model.load_flat_weights(*job.warm_start_weights);
    } else {
      model.init_weights(init_gen);
    }
    const std::unique_ptr<nnr::opt::Optimizer> optimizer =
        job.make_optimizer ? job.make_optimizer(model.params())
                           : std::make_unique<nnr::opt::Sgd>(
                                 model.params(), job.recipe.momentum);
    nnr::tensor::Workspace workspace;
    nnr::nn::RunContext ctx{.hw = &hw,
                            .training = true,
                            .dropout = &dropout_gen,
                            .workspace = &workspace};
    const nnr::data::LabeledImages& train = job.dataset->train;
    nnr::data::EpochShuffler shuffler(train.size(), std::move(shuffle_gen));
    const std::vector<std::uint32_t> order = shuffler.next_epoch_order();
    const float lr = job.recipe.learning_rate(0);
    std::vector<LayerShape> shapes(model.num_layers());

    // Step 0 warms the workspace (as every later step of a run finds it);
    // steps 1..steps are recorded.
    std::vector<double> step_s;
    for (int step = 0; step <= steps; ++step) {
      Tracer scratch;
      Tracer& t = step == 0 ? scratch : tracer;
      const double step_start = now_s();
      const int root = t.open("replay.step", -1, request);
      const std::int64_t start =
          (step * batch) % std::max<std::int64_t>(1, train.size() - batch + 1);
      const std::span<const std::uint32_t> idx(
          order.data() + start,
          static_cast<std::size_t>(std::min(batch, train.size() - start)));
      Tensor images;
      std::vector<std::int32_t> labels;
      {
        const ScopedSpan span(&t, "data.batch", root, request);
        images = nnr::data::gather_images(train.images, idx);
        if (job.recipe.augment) {
          images = nnr::data::augment_batch(images, job.recipe.augment_config,
                                            augment_gen);
        }
        labels = nnr::data::gather_labels(train.labels, idx);
      }
      {
        const ScopedSpan span(&t, "nn.zero_grads", root, request);
        model.zero_grads();
      }
      Tensor x = images;
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        nnr::nn::Layer& layer = model.layer(i);
        const std::string name = layer.name();
        shapes[i].name = name;
        shapes[i].in = x.shape();
        const ScopedSpan span(&t, "nn." + layer_kind(name) + ".fwd", root,
                              request);
        x = layer.forward(x, ctx);
        shapes[i].out = x.shape();
      }
      nnr::nn::LossResult loss;
      {
        const ScopedSpan span(&t, "nn.loss", root, request);
        loss = nnr::nn::softmax_cross_entropy(x, labels, ctx);
      }
      Tensor grad = loss.grad_logits;
      for (std::size_t i = model.num_layers(); i-- > 0;) {
        nnr::nn::Layer& layer = model.layer(i);
        const ScopedSpan span(&t, "nn." + layer_kind(layer.name()) + ".bwd",
                              root, request);
        grad = layer.backward(grad, ctx);
      }
      {
        const ScopedSpan span(&t, "opt.step", root, request);
        optimizer->step(lr);
      }
      t.close(root);
      if (step > 0) step_s.push_back(now_s() - step_start);
    }
    totals.replay_step_s += median(step_s);

    // Kernel replay at the shapes the step used, under the matmul policy.
    {
      const int root = tracer.open("replay.kernels", -1, request);
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        for (nnr::nn::Param* p : model.layer(i).params()) {
          shapes[i].param_shapes.push_back(p->value.shape());
        }
        KernelReplay kr(tracer, root, request, hw.matmul_policy(),
                        totals.work);
        replay_layer_kernels(shapes[i], kr);
      }
      tracer.close(root);
    }

    // The trainer's own step: train_replicate on two batches minus on one
    // (model build, init and evaluation cancel), medians of `steps` runs.
    nnr::data::ClassificationDataset one{job.dataset->name,
                                         head(train, batch),
                                         head(job.dataset->test, batch)};
    nnr::data::ClassificationDataset two{job.dataset->name,
                                         head(train, 2 * batch),
                                         head(job.dataset->test, batch)};
    TrainJob job1 = job;
    job1.recipe.epochs = 1;
    job1.dataset = &one;
    TrainJob job2 = job1;
    job2.dataset = &two;
    std::vector<double> t1, t2, eval;
    for (int r = 0; r < steps; ++r) {
      t1.push_back(time_train_replicate(job1));
      t2.push_back(time_train_replicate(job2));
      const double e0 = now_s();
      const auto result = nnr::core::evaluate_full(model, one.test, hw, batch);
      (void)result;
      eval.push_back(now_s() - e0);
    }
    totals.core_step_s += median(t2) - median(t1);
    totals.evaluate_s += median(eval);
  }
  return totals;
}

}  // namespace perfbench

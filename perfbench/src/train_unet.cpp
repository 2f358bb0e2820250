// train_unet — the training clock and Table IV accuracy.
//
// nn::Trainer::fit trains U-Net-Auto on filtered tiles with auto labels, as
// TrainingWorkflow does (depth 2, base 8, 64x64 tiles, batch 4, dropout
// 0.2). The corpus and the 80/20 split are built in set-up, so the timed
// window does no img work. The trained model is evaluated on the held-out
// split against ground truth.
//
// Traced mode runs a copy of fit's loop, built from the same public calls
// with a span around each; it must reproduce fit's per-epoch loss bit for
// bit, and its parts must add up to the traced epoch wall within 5%.

#include <cmath>
#include <map>
#include <memory>

#include "bench.h"
#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "nn/trainer.h"
#include "par/thread_pool.h"
#include "tensor/conv.h"
#include "util/mem_stats.h"

namespace perfbench {
namespace {

namespace core = polarice::core;
namespace nn = polarice::nn;
namespace tensor = polarice::tensor;

constexpr std::size_t kThreads = 4;

struct Corpus {
  nn::SegDataset train;
  std::vector<core::LabeledTile> test;
};

Corpus build_corpus(int scenes, int scene_size, std::uint64_t seed,
                    const polarice::par::ExecutionContext& ctx) {
  core::CorpusConfig config;
  config.acquisition.num_scenes = scenes;
  config.acquisition.scene_size = scene_size;
  config.acquisition.tile_size = kModelTile;
  config.acquisition.cloudy_scene_fraction = 0.5;
  config.acquisition.seed = 2'000'000 + seed * 1'000;
  config.manual.seed = 8'000'000 + seed * 1'000;
  core::ArtifactStore store;
  store.put(core::keys::kCorpusTiles, core::prepare_corpus(config, ctx));
  core::TrainTestSplitStage(0.8, 77 + seed).run(ctx, store);
  Corpus corpus;
  corpus.train = core::build_dataset(
      store.get<std::vector<core::LabeledTile>>(core::keys::kTrainTiles),
      core::LabelSource::kAuto, core::ImageVariant::kFiltered);
  corpus.test = store.get<std::vector<core::LabeledTile>>(core::keys::kTestTiles);
  return corpus;
}

struct TracedEpochs {
  std::vector<float> mean_loss;
  std::vector<double> epoch_s;
};

/// nn::Trainer::fit's loop, step for step, with a span around each call.
TracedEpochs traced_fit(nn::UNet& model, const nn::SegDataset& data,
                        const nn::TrainConfig& config,
                        const polarice::par::ExecutionContext& ctx,
                        Tracer& tracer) {
  nn::Adam optimizer(model.params(), config.learning_rate);
  nn::DataLoader loader(data, config.batch_size, config.seed,
                        /*shuffle=*/true, config.drop_last);
  TracedEpochs out;
  tensor::Tensor logits, probs, dlogits;
  std::vector<int> pred;
  nn::Batch batch;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const auto epoch_start = SteadyClock::now();
    loader.start_epoch();
    double loss_sum = 0.0;
    std::int64_t correct = 0, counted = 0;
    std::size_t batches = 0;
    for (;;) {
      bool more = false;
      {
        ScopedSpan span(tracer, "nn.data.next", batches);
        more = loader.next(batch);
      }
      if (!more) break;
      ScopedSpan step(tracer, "nn.step", batches);
      ctx.throw_if_cancelled("traced_fit");
      optimizer.zero_grad();
      {
        ScopedSpan span(tracer, "nn.unet.forward", batches);
        model.forward(batch.x, logits, /*training=*/true);
      }
      float loss = 0.0f;
      {
        ScopedSpan span(tracer, "tensor.softmax_xent", batches);
        loss = tensor::softmax_cross_entropy(logits, batch.targets, probs,
                                             dlogits);
      }
      if (!std::isfinite(loss)) throw std::runtime_error("loss diverged");
      {
        ScopedSpan span(tracer, "nn.unet.backward", batches);
        model.backward(dlogits);
      }
      {
        ScopedSpan span(tracer, "nn.adam.step", batches);
        optimizer.step();
      }
      loss_sum += loss;
      ++batches;
      pred.resize(batch.targets.size());
      tensor::argmax_channel(probs, pred.data());
      for (std::size_t i = 0; i < pred.size(); ++i) {
        if (batch.targets[i] < 0) continue;
        ++counted;
        correct += pred[i] == batch.targets[i];
      }
    }
    out.mean_loss.push_back(
        batches ? static_cast<float>(loss_sum / batches) : 0.0f);
    out.epoch_s.push_back(since(epoch_start));
  }
  return out;
}

}  // namespace

Result run_train_unet(const Options& options, Tracer& tracer) {
  const int scenes = options.smoke ? 1 : 6;
  const int scene_size = options.smoke ? 256 : 512;
  polarice::par::ThreadPool pool(kThreads);
  const polarice::par::ExecutionContext ctx(&pool);
  Result result;

  std::vector<double> setup_s;
  Corpus corpus;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = SteadyClock::now();
    corpus = build_corpus(scenes, scene_size, options.seed, ctx);
    setup_s.push_back(since(start));
  }
  result.set_e2e("setup_s", median(setup_s), "s");

  nn::TrainConfig train;
  train.epochs = options.smoke ? 1 : 4;
  train.batch_size = kTrainBatch;
  train.seed = 99 + options.seed;

  // Timed: fresh-model fits of a fixed number of epochs, repeated while
  // another fit still ends inside the window. Every fit must reproduce the
  // first one's loss history.
  std::vector<double> images_per_s, epoch_s, step_ms, peaks;
  std::vector<float> first_history;
  std::unique_ptr<nn::UNet> first_model;
  const auto window_start = SteadyClock::now();
  double fit_s = 0.0;
  for (int fit = 0; fit == 0 || since(window_start) + fit_s < options.seconds;
       ++fit) {
    const auto fit_start = SteadyClock::now();
    auto model = std::make_unique<nn::UNet>(unet_config(true, 1234 + options.seed));
    model->bind(ctx);
    nn::Trainer trainer(*model, train);
    SteadyClock::time_point last = SteadyClock::now();
    trainer.on_batch = [&](int, std::size_t batch, float) {
      const auto now = SteadyClock::now();
      if (batch > 0) {
        step_ms.push_back(
            std::chrono::duration<double, std::milli>(now - last).count());
      }
      last = now;
    };
    polarice::util::mem_reset_peak();
    const std::size_t resident = polarice::util::mem_current_bytes();
    const auto history = trainer.fit(corpus.train, ctx);
    peaks.push_back(
        static_cast<double>(polarice::util::mem_peak_bytes() - resident));
    fit_s = since(fit_start);
    std::vector<float> losses;
    for (const auto& epoch : history) {
      images_per_s.push_back(epoch.images_per_second);
      epoch_s.push_back(epoch.seconds);
      losses.push_back(epoch.mean_loss);
    }
    ++result.attempted;
    if (fit == 0) {
      first_history = losses;
      first_model = std::move(model);
    } else if (losses != first_history) {
      ++result.failed;
      result.fail("fit is not deterministic across repeats");
    }
  }

  const core::Evaluation eval = core::evaluate_model(
      *first_model, corpus.test, core::ImageVariant::kFiltered, ctx);
  const double rate = median(images_per_s);
  const double tile_mpix = kModelTile * kModelTile / 1e6;
  result.set_e2e("mpix_per_s", rate * tile_mpix, "Mpx/s");
  result.set_e2e("p50_ms", median(step_ms), "ms");
  result.set_e2e("label_accuracy", eval.accuracy, "fraction");
  result.set_e2e("label_miou", mean_iou(eval.confusion), "fraction");
  result.set_e2e("peak_mb", median(peaks) / (1 << 20), "MiB");
  result.set_named("train_images_per_s", rate, "images/s");
  result.set_named("model_pixel_accuracy", eval.accuracy, "fraction");
  result.set_named("model_miou", mean_iou(eval.confusion), "fraction");
  result.set_named("train_step_p50_ms", median(step_ms), "ms");
  result.set_named("train_tiles", static_cast<double>(corpus.train.size()),
                   "count");
  result.set_named("test_tiles", static_cast<double>(corpus.test.size()),
                   "count");
  result.set_named("fits", static_cast<double>(result.attempted), "count");
  result.set_named("final_loss", first_history.back(), "loss");

  if (options.trace) {
    nn::UNet model(unet_config(true, 1234 + options.seed));
    model.bind(ctx);
    const std::int64_t start_ns = tracer.now_ns();
    const TracedEpochs traced =
        traced_fit(model, corpus.train, train, ctx, tracer);
    const double wall = static_cast<double>(tracer.now_ns() - start_ns) * 1e-9;
    ++result.attempted;
    if (traced.mean_loss != first_history) {
      ++result.failed;
      result.fail("traced fit replica does not reproduce fit's losses");
    }
    std::map<std::string, double> busy;
    for (const auto& s : tracer.spans()) busy[s.name] += s.seconds();
    const double epochs = static_cast<double>(train.epochs);
    const double parts = busy["nn.unet.forward"] +
                         busy["tensor.softmax_xent"] +
                         busy["nn.unet.backward"] + busy["nn.adam.step"];
    const double unattributed = busy["nn.step"] - parts;
    result.set_layer("nn.data.next_s", busy["nn.data.next"] / epochs);
    result.set_layer("nn.unet.forward_s", busy["nn.unet.forward"] / epochs);
    result.set_layer("tensor.softmax_xent_s",
                     busy["tensor.softmax_xent"] / epochs);
    result.set_layer("nn.unet.backward_s", busy["nn.unet.backward"] / epochs);
    result.set_layer("nn.adam.step_s", busy["nn.adam.step"] / epochs);
    result.set_layer("nn.step.unattributed_s", unattributed / epochs);
    result.set_layer("trace.overhead_s",
                     median(traced.epoch_s) - median(epoch_s));
    // The parts must account for the epoch wall they were measured in.
    const double accounted = busy["nn.data.next"] + busy["nn.step"];
    double epoch_wall = 0.0;
    for (const double s : traced.epoch_s) epoch_wall += s;
    const double gap = std::abs(epoch_wall - accounted) / epoch_wall;
    result.set_named("traced_step_accounting_gap", gap, "fraction");
    if (gap > 0.05) {
      result.fail("traced step parts miss the epoch wall by more than 5%");
    }
    result.table = layer_table(tracer.spans(), wall, 1);
  }
  return result;
}

}  // namespace perfbench

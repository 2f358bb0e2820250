// Kernel probes shared by every traced run. Each times one public call at
// the shape the workloads use, as a median over repetitions:
//   * tensor::conv2d_forward / conv2d_backward for every distinct conv
//     shape of the benchmark U-Net, at the training batch size;
//   * tensor::gemm_nn against tensor::gemm_nn_ref, both single-threaded,
//     at the forward GEMM of dec1.conv1 (their ratio is host-invariant);
//   * core::CloudShadowFilter::apply on the serve_cold scene shapes, and
//     nn::UNet::forward on one batch of serving tiles;
//   * Communicator::tree_allreduce_sum over two in-process SocketCommunicator
//     ranks on a buffer the size of the model's parameters;
//   * ddp::CheckpointStore::write of model-sized training state.

#include <functional>
#include <thread>

#include "bench.h"
#include "core/cloud_filter.h"
#include "ddp/checkpoint.h"
#include "ddp/fleet_trainer.h"
#include "ddp/socket_communicator.h"
#include "nn/unet.h"
#include "par/thread_pool.h"
#include "s2/scene.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace tensor = polarice::tensor;
namespace ddp = polarice::ddp;
namespace nn = polarice::nn;

/// Median seconds of `fn` over repetitions filling about `budget_s`.
double time_median(const std::function<void()>& fn, double budget_s,
                   int max_reps = 200) {
  fn();  // warm-up
  std::vector<double> samples;
  const auto start = SteadyClock::now();
  while (samples.size() < 3 ||
         (since(start) < budget_s && static_cast<int>(samples.size()) < max_reps)) {
    const auto t = SteadyClock::now();
    fn();
    samples.push_back(since(t));
  }
  return median(samples);
}

tensor::Tensor random_tensor(std::vector<int> shape, polarice::util::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = rng.uniform_f() - 0.5f;
  return t;
}

}  // namespace

void run_layer_probes(const Options& options, Tracer& tracer, Result& result) {
  const double budget = options.smoke ? 0.005 : 0.08;
  polarice::par::ThreadPool pool(4);
  polarice::util::Rng rng(options.seed);
  const std::size_t first_probe_span = tracer.spans().size();
  const std::int64_t probes_start = tracer.now_ns();

  auto timed = [&](const std::string& span, double gflop,
                   const std::function<void()>& fn) {
    const double s = time_median(fn, budget);
    const std::int64_t now = tracer.now_ns();
    tracer.record(span, now - static_cast<std::int64_t>(s * 1e9), now, 0,
                  gflop);
    return s;
  };

  // Conv layers at the training batch size.
  for (const auto& shape : unet_conv_shapes()) {
    const auto spec = tensor::Conv2dSpec::same(shape.in_ch, shape.out_ch,
                                               shape.k);
    const tensor::Tensor x =
        random_tensor({kTrainBatch, shape.in_ch, shape.hw, shape.hw}, rng);
    const tensor::Tensor w =
        random_tensor({shape.out_ch, shape.in_ch, shape.k, shape.k}, rng);
    const tensor::Tensor b = random_tensor({shape.out_ch}, rng);
    // conv2d_backward accumulates into dw/db and writes dx in place, so all
    // three are shaped up front.
    tensor::Tensor y;
    tensor::Tensor dx({kTrainBatch, shape.in_ch, shape.hw, shape.hw});
    tensor::Tensor dw({shape.out_ch, shape.in_ch, shape.k, shape.k});
    tensor::Tensor db({shape.out_ch});
    tensor::ConvScratch scratch;
    const double gflop = 2.0 * kTrainBatch * shape.hw * shape.hw *
                         shape.out_ch * shape.in_ch * shape.k * shape.k / 1e9;
    const std::string layer = shape.layer;
    const double fwd = timed("tensor.conv_fwd." + layer, gflop, [&] {
      tensor::conv2d_forward(x, w, b, y, spec, &pool, scratch);
    });
    const tensor::Tensor dy = random_tensor(
        {kTrainBatch, shape.out_ch, shape.hw, shape.hw}, rng);
    const double bwd_gflop = gflop * (shape.input_grad ? 2.0 : 1.0);
    const double bwd = timed("tensor.conv_bwd." + layer, bwd_gflop, [&] {
      tensor::conv2d_backward(x, w, dy, shape.input_grad ? &dx : nullptr, dw,
                              db, spec, &pool, scratch);
    });
    result.set_layer("tensor.conv_fwd." + layer + ".gflops", gflop / fwd);
    result.set_layer("tensor.conv_bwd." + layer + ".gflops", bwd_gflop / bwd);
  }

  // GEMM vs reference: dec1.conv1's forward product, W[16,288] * col[288,1024].
  {
    const int m = 16, n = 1024, k = 288;
    const tensor::Tensor a = random_tensor({m, k}, rng);
    const tensor::Tensor bm = random_tensor({k, n}, rng);
    tensor::Tensor c({m, n});
    const double gflop = 2.0 * m * n * k / 1e9;
    const double opt = timed("tensor.gemm_nn", gflop, [&] {
      tensor::gemm_nn(m, n, k, a.data(), bm.data(), c.data(), false, nullptr);
    });
    const double ref = timed("tensor.gemm_nn_ref", gflop, [&] {
      tensor::gemm_nn_ref(m, n, k, a.data(), bm.data(), c.data(), false);
    });
    result.set_layer("tensor.gemm_nn.gflops", gflop / opt);
    result.set_layer("tensor.gemm_nn_ref.gflops", gflop / ref);
  }

  // Scene filter on the serve_cold shapes, and one batched forward.
  {
    const polarice::par::ExecutionContext ctx(&pool);
    const polarice::core::CloudShadowFilter filter{
        polarice::core::CloudFilterConfig{}};
    std::vector<polarice::img::ImageU8> scenes;
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {64, 64}, {128, 128}, {96, 64}, {128, 80}, {64, 112}}) {
      polarice::s2::SceneConfig sc;
      sc.width = w;
      sc.height = h;
      sc.seed = 17 + options.seed;
      scenes.push_back(polarice::s2::SceneGenerator(sc).generate().rgb);
    }
    const double all = timed("core.cloud_filter.scene", 0.0, [&] {
      for (const auto& scene : scenes) (void)filter.apply(scene, ctx);
    });
    result.set_layer("core.cloud_filter.scene_ms",
                     all * 1e3 / static_cast<double>(scenes.size()));

    nn::UNet model(unet_config(false, options.seed));
    model.bind(ctx);
    const tensor::Tensor x = random_tensor({8, 3, kModelTile, kModelTile}, rng);
    tensor::Tensor logits;
    const double fwd = timed("nn.unet.forward_batch", 0.0, [&] {
      model.forward(x, logits, /*training=*/false);
    });
    result.set_layer("nn.unet.forward_batch_ms", fwd * 1e3);
  }

  // All-reduce and checkpoint write at the model's parameter size.
  {
    nn::UNet model(unet_config(false, options.seed));
    const auto count = static_cast<std::size_t>(model.parameter_count());
    const RunDir dir(options.run_dir, "probe");

    ddp::SocketCommunicatorConfig mesh;
    mesh.world_size = 2;
    mesh.endpoints = ddp::fleet_endpoints(dir.path(), 2);
    mesh.fingerprint = 0x5eed;
    mesh.establish_timeout = std::chrono::milliseconds(20000);
    double allreduce_s = 0.0;
    std::exception_ptr error;
    {
      std::jthread peer([&] {
        try {
          auto cfg = mesh;
          cfg.rank = 1;
          ddp::SocketCommunicator comm(cfg);
          std::vector<float> buf(count, 1.0f);
          // Rank 0 sends the repetition count first.
          const auto reps = comm.recv(0);
          for (int i = 0; i < static_cast<int>(reps.at(0)); ++i) {
            comm.tree_allreduce_sum(buf.data(), buf.size());
          }
        } catch (...) {
          error = std::current_exception();
        }
      });
      auto cfg = mesh;
      cfg.rank = 0;
      ddp::SocketCommunicator comm(cfg);
      const int reps = options.smoke ? 4 : 40;
      comm.send(1, std::vector<float>{static_cast<float>(reps)});
      std::vector<float> buf(count, 1.0f);
      std::vector<double> samples;
      for (int i = 0; i < reps; ++i) {
        const std::int64_t start = tracer.now_ns();
        const auto t = SteadyClock::now();
        comm.tree_allreduce_sum(buf.data(), buf.size());
        samples.push_back(since(t));
        tracer.record("ddp.allreduce", start, tracer.now_ns(), 0,
                      static_cast<double>(count) * 4 / 1e6);
      }
      allreduce_s = median(samples);
    }
    if (error) std::rethrow_exception(error);
    result.set_layer("ddp.allreduce_ms", allreduce_s * 1e3);
    result.set_layer("ddp.allreduce_bytes_per_step",
                     static_cast<double>(count) * sizeof(float));

    ddp::CheckpointStoreConfig store_config;
    store_config.dir = dir.path() + "/ckpt";
    store_config.fingerprint = 0x5eed;
    ddp::CheckpointStore store(store_config);
    ddp::TrainCheckpoint checkpoint;
    checkpoint.params.assign(count, 0.5f);
    checkpoint.adam_m.assign(count, 0.25f);
    checkpoint.adam_v.assign(count, 0.125f);
    const double bytes = static_cast<double>(
        ddp::encode_checkpoint(checkpoint, store_config.fingerprint).size());
    const double write = timed("ddp.checkpoint.write", 0.0, [&] {
      ++checkpoint.global_step;
      store.write(checkpoint);
    });
    result.set_layer("ddp.checkpoint.write_ms", write * 1e3);
    result.set_layer("ddp.checkpoint.bytes", bytes);
  }

  // Probe rows follow the workload's rows in the printed table.
  const std::vector<Span> all = tracer.spans();
  const std::vector<Span> probe_spans(all.begin() + static_cast<long>(first_probe_span),
                                      all.end());
  std::vector<LayerRow> rows = layer_table(
      probe_spans, static_cast<double>(tracer.now_ns() - probes_start) * 1e-9, 1);
  rows.pop_back();  // the probes' own unattributed row says nothing
  result.table.insert(result.table.end(), rows.begin(), rows.end());
}

}  // namespace perfbench

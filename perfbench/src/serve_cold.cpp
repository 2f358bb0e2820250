// serve_cold — the scene -> label-plane clock (Fig 9).
//
// One in-process core::serve::SceneServer. Phase 1 is an open loop: a single
// generator thread submits on a fixed schedule (kOpenLoopRate scenes/s) and
// every request is timed from the moment it was due. Phase 2 submits a
// fixed batch of scenes at once, four times, and times how long each takes
// to drain, so a change that raises capacity shows even when light-load
// latency is flat.
//
// No two requests share content (each carries its request number in its
// first pixel), so the result cache and single-flight never hit. Scene
// sizes are a fixed mix that includes ragged scenes. Every served plane
// must be bit-identical to a serial reference: InferenceWorkflow::
// classify_scene for tile-aligned scenes, and the same filter -> pad ->
// infer_scene_tiles -> stitch -> crop composition for ragged ones.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/cloud_filter.h"
#include "core/serve/scene_server.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "img/ops.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "s2/scene.h"
#include "s2/tiles.h"
#include "util/mem_stats.h"

namespace perfbench {
namespace {

namespace core = polarice::core;
namespace serve = polarice::core::serve;
namespace nn = polarice::nn;
namespace img = polarice::img;
namespace s2 = polarice::s2;
namespace obs = polarice::obs;

constexpr std::size_t kThreads = 4;
constexpr int kBatchTiles = 8;
// Open-loop arrival rate, about 40% of the drain capacity (about 100
// scenes/s) measured on a 4-vCPU host. A fixed constant: a faster server
// must show lower latency at this rate, not a different schedule. At 60%
// the host's slowdowns (capacity down by up to half for a whole run)
// overloaded the server and the median latency jumped twentyfold; at 40%
// such a run stays below saturation.
constexpr double kOpenLoopRate = 40.0;
constexpr int kDrainScenes = 100;
constexpr int kDrainRounds = 4;
constexpr int kBaseScenes = 40;
// The open loop runs as segments with a pause between them, so the queue
// drains and each segment is independent of the others. Median latency and
// peak memory are medians over segments: a few seconds of host slowdown
// spoil one segment instead of shifting the whole run.
constexpr int kSegments = 6;
constexpr double kSegmentPauseS = 0.25;

// Scene sizes (width x height); three of five are not tile multiples.
constexpr int kSizes[][2] = {{64, 64}, {128, 128}, {96, 64}, {128, 80},
                             {64, 112}};
constexpr int kNumSizes = 5;

struct Request {
  img::ImageU8 rgb;
  double due_s = 0.0;      // schedule offset (open loop)
  double latency_ms = -1;  // from due time to resolution
  double lateness_ms = 0;  // how late the generator submitted
  serve::SceneTicket ticket;
  img::ImageU8 reference;
};

/// The serial plane a SceneServer must reproduce bit for bit.
img::ImageU8 reference_plane(nn::UNet& model, const img::ImageU8& rgb) {
  const int ts = kModelTile;
  if (rgb.width() % ts == 0 && rgb.height() % ts == 0) {
    core::InferenceWorkflow workflow(model, core::CloudFilterConfig{}, ts,
                                     kBatchTiles);
    return workflow.classify_scene(rgb);
  }
  const core::CloudShadowFilter filter{core::CloudFilterConfig{}};
  const img::ImageU8 padded =
      img::pad_edge(filter.apply(rgb), (rgb.width() + ts - 1) / ts * ts,
                    (rgb.height() + ts - 1) / ts * ts);
  const auto planes = core::infer_scene_tiles(model, padded, ts, kBatchTiles,
                                              polarice::par::ExecutionContext{});
  const img::ImageU8 full =
      s2::stitch_labels(planes, padded.width() / ts, padded.height() / ts);
  return img::crop(full, 0, 0, rgb.width(), rgb.height());
}

/// Computes every request's reference on `threads` threads, each with its
/// own model clone. Rethrows the first failure after all threads joined.
void compute_references(nn::UNet& model, std::vector<Request>& requests,
                        int threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::unique_ptr<nn::UNet>> clones;
  for (int t = 0; t < threads; ++t) clones.push_back(model.clone());
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        try {
          for (std::size_t i = next++; i < requests.size(); i = next++) {
            requests[i].reference =
                reference_plane(*clones[t], requests[i].rgb);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          next = requests.size();
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
}

double percentile_ms(const obs::HistogramSample& h, double q) {
  return h.count ? h.percentile(q) * 1e3 : 0.0;
}

}  // namespace

Result run_serve_cold(const Options& options, Tracer& tracer) {
  polarice::par::ThreadPool pool(kThreads);
  const polarice::par::ExecutionContext ctx(&pool);
  Result result;

  // Set-up: the served model, the base scenes, and a started server.
  serve::SceneServerConfig config;
  config.tile_size = kModelTile;
  config.batch_tiles = kBatchTiles;
  // Two replicas, always warm: with auto-scaling between one and two, the
  // scale-down and re-clone cycle at this rate moved the median latency by
  // up to 2x from run to run.
  config.min_replicas = 2;
  config.max_replicas = 2;
  std::vector<double> setup_s;
  std::unique_ptr<nn::UNet> model;
  std::unique_ptr<serve::SceneServer> server;
  std::vector<img::ImageU8> base;
  for (int rep = 0; rep < 9; ++rep) {
    const auto start = SteadyClock::now();
    server.reset();
    model = std::make_unique<nn::UNet>(unet_config(true, 4321 + options.seed));
    base.clear();
    for (int i = 0; i < kBaseScenes; ++i) {
      s2::SceneConfig sc;
      sc.width = kSizes[i % kNumSizes][0];
      sc.height = kSizes[i % kNumSizes][1];
      sc.seed = 5'000'000 + options.seed * 1'000 + static_cast<std::uint64_t>(i);
      sc.cloudy = (i / kNumSizes) % 2 == 0;
      base.push_back(s2::SceneGenerator(sc).generate().rgb);
    }
    server = std::make_unique<serve::SceneServer>(*model, config, ctx);
    setup_s.push_back(since(start));
  }
  result.set_e2e("setup_s", median(setup_s), "s");

  const double open_s = options.smoke ? 0.5 : options.seconds * 0.9;
  const int open_n = static_cast<int>(open_s * kOpenLoopRate);
  const int drain_n = options.smoke ? 16 : kDrainScenes;
  std::vector<Request> requests(
      static_cast<std::size_t>(open_n + kDrainRounds * drain_n));
  const std::size_t per_segment =
      std::max<std::size_t>(1, static_cast<std::size_t>(open_n) / kSegments);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    requests[r].rgb = base[r % base.size()].clone();
    // Unique content: the request number in the first pixel.
    requests[r].rgb.at(0, 0, 0) = static_cast<std::uint8_t>(r & 0xff);
    requests[r].rgb.at(0, 0, 1) = static_cast<std::uint8_t>((r >> 8) & 0xff);
    requests[r].rgb.at(0, 0, 2) = static_cast<std::uint8_t>((r >> 16) & 0xff);
    requests[r].due_s = static_cast<double>(r) / kOpenLoopRate +
                        static_cast<double>(std::min<std::size_t>(
                            r / per_segment, kSegments - 1)) *
                            kSegmentPauseS;
  }
  // The serial reference of every request, computed before the window so
  // each plane is checked, and dropped, as it arrives.
  compute_references(*model, requests, static_cast<int>(kThreads));

  // Peak memory is the open loop's, per segment, above what is resident
  // before it (the requests and their references). The drain bursts' peak
  // moved by 11% from run to run; the open loop's by under 1% on a quiet
  // host.
  const std::size_t resident = polarice::util::mem_current_bytes();
  std::vector<double> segment_peaks;
  auto end_segment = [&] {
    segment_peaks.push_back(
        static_cast<double>(polarice::util::mem_peak_bytes() - resident) /
        (1 << 20));
    polarice::util::mem_reset_peak();
  };
  polarice::util::mem_reset_peak();
  (void)obs::ServeInstruments::get();
  const obs::Snapshot before = obs::registry().snapshot();
  serve::SubmitOptions submit;
  submit.priority = serve::Priority::kNormal;

  // Label quality is agreement with the reference planes: the offline
  // pipeline's answer. A request that fails counts every pixel as wrong.
  polarice::metrics::ConfusionMatrix confusion(3);
  auto score = [&](const Request& r, const img::ImageU8* plane) {
    const std::uint8_t* want = r.reference.data();
    for (std::size_t i = 0; i < r.reference.size(); ++i) {
      confusion.add(want[i], plane ? plane->data()[i] : (want[i] + 1) % 3);
    }
  };
  auto try_submit = [&](Request& r) {
    ++result.attempted;
    try {
      ScopedSpan span(tracer, "serve.submit");
      r.ticket = server->submit(r.rgb.clone(), submit);
    } catch (const std::exception& e) {
      ++result.failed;
      score(r, nullptr);
      result.fail(std::string("submit refused: ") + e.what());
    }
  };
  auto collect = [&](Request& r, SteadyClock::time_point due) {
    try {
      const img::ImageU8 plane = r.ticket.get();
      r.ticket = serve::SceneTicket();  // the ticket state holds its planes
      r.latency_ms = std::chrono::duration<double, std::milli>(
                         SteadyClock::now() - due).count();
      if (plane == r.reference) {
        score(r, &plane);
        return;
      }
      result.fail("served plane differs from reference");
    } catch (const std::exception& e) {
      result.fail(std::string("request failed: ") + e.what());
    }
    ++result.failed;
    r.latency_ms = -1;
    score(r, nullptr);
  };

  // Phase 1: open loop. One thread submits on schedule and polls the
  // outstanding tickets between sends, stamping each as it resolves.
  const auto open_start = SteadyClock::now();
  auto due_at = [&](const Request& r) {
    return open_start + std::chrono::duration_cast<SteadyClock::duration>(
                            std::chrono::duration<double>(r.due_s));
  };
  std::vector<std::size_t> outstanding;
  for (int sent = 0; sent < open_n || !outstanding.empty();) {
    auto now = SteadyClock::now();
    while (sent < open_n && due_at(requests[sent]) <= now) {
      if (sent > 0 && static_cast<std::size_t>(sent) % per_segment == 0 &&
          static_cast<std::size_t>(sent) / per_segment < kSegments) {
        end_segment();
      }
      Request& r = requests[static_cast<std::size_t>(sent)];
      r.lateness_ms =
          std::chrono::duration<double, std::milli>(now - due_at(r)).count();
      try_submit(r);
      if (r.ticket.valid()) outstanding.push_back(static_cast<std::size_t>(sent));
      ++sent;
      now = SteadyClock::now();
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      Request& r = requests[outstanding[k]];
      if (r.ticket.ready()) {
        collect(r, due_at(r));
        if (tracer.enabled() && r.latency_ms >= 0) {
          const std::int64_t end_ns = tracer.now_ns();
          tracer.record("serve.request",
                        end_ns - static_cast<std::int64_t>(r.latency_ms * 1e6),
                        end_ns, outstanding[k]);
        }
        outstanding[k] = outstanding.back();
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
    auto wake = SteadyClock::now() + std::chrono::microseconds(200);
    if (sent < open_n) wake = std::min(wake, due_at(requests[sent]));
    std::this_thread::sleep_until(wake);
  }

  end_segment();

  // Phase 2: rounds of a batch submitted all at once, each drained fully.
  std::vector<double> drain_rates, drain_mpix_rates;
  for (int round = 0; round < kDrainRounds; ++round) {
    const std::size_t first =
        static_cast<std::size_t>(open_n + round * drain_n);
    double mpix = 0.0;
    const auto drain_start = SteadyClock::now();
    for (std::size_t i = first; i < first + drain_n; ++i) {
      try_submit(requests[i]);
      mpix += static_cast<double>(requests[i].rgb.pixel_count()) / 1e6;
    }
    for (std::size_t i = first; i < first + drain_n; ++i) {
      if (requests[i].ticket.valid()) collect(requests[i], drain_start);
    }
    const double drain_s = since(drain_start);
    drain_rates.push_back(drain_n / drain_s);
    drain_mpix_rates.push_back(mpix / drain_s);
  }
  const serve::SceneServerStats stats = server->snapshot();
  const obs::Snapshot after = obs::registry().snapshot();
  server->shutdown();

  std::vector<double> latencies, lateness;
  std::vector<std::vector<double>> segment_latencies(kSegments);
  for (std::size_t r = 0; r < static_cast<std::size_t>(open_n); ++r) {
    if (requests[r].latency_ms < 0) continue;
    latencies.push_back(requests[r].latency_ms);
    lateness.push_back(requests[r].lateness_ms);
    segment_latencies[std::min<std::size_t>(r / per_segment, kSegments - 1)]
        .push_back(requests[r].latency_ms);
  }
  std::vector<double> segment_p50;
  for (const auto& segment : segment_latencies) {
    if (!segment.empty()) segment_p50.push_back(median(segment));
  }
  const std::size_t lookups = stats.cache_hits + stats.cache_misses;
  const double hit_frac =
      lookups ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  if (stats.cache_hits != 0 || stats.coalesced != 0) {
    result.fail("a unique scene hit the cache or coalesced");
  }

  // The highest percentile with at least ten samples beyond it.
  const double n = static_cast<double>(latencies.size());
  const double tail_q = std::min(0.99, std::max(0.5, 1.0 - 10.0 / n));
  result.set_e2e("mpix_per_s", median(drain_mpix_rates), "Mpx/s");
  result.set_e2e("p50_ms", median(segment_p50), "ms");
  result.set_e2e("label_accuracy", confusion.accuracy(), "fraction");
  result.set_e2e("label_miou", mean_iou(confusion), "fraction");
  result.set_e2e("peak_mb", median(segment_peaks), "MiB");
  result.set_named("serve_p50_ms", median(segment_p50), "ms");
  result.set_named("serve_tail_ms", quantile(latencies, tail_q), "ms");
  result.set_named("serve_tail_quantile", tail_q, "fraction");
  result.set_named("serve_open_loop_samples", n, "count");
  result.set_named("serve_open_loop_rate", kOpenLoopRate, "scenes/s");
  result.set_named("serve_drain_scenes_per_s", median(drain_rates),
                   "scenes/s");
  result.set_named("serve_cache_hit_frac", hit_frac, "fraction");
  result.set_named("served_reference_agreement", confusion.accuracy(),
                   "fraction");

  if (options.trace) {
    auto delta = [&](const char* name) {
      const auto* later = after.find_histogram(name);
      const auto* earlier = before.find_histogram(name);
      if (later == nullptr) return obs::HistogramSample{};
      return earlier ? obs::histogram_delta(*later, *earlier) : *later;
    };
    for (const auto& [metric, histogram] :
         std::vector<std::pair<std::string, const char*>>{
             {"serve.queue_wait_ms", "serve_queue_wait_seconds"},
             {"serve.batch_fill_ms", "serve_batch_fill_seconds"},
             {"serve.forward_ms", "serve_forward_seconds"},
             {"serve.stitch_ms", "serve_stitch_seconds"}}) {
      const obs::HistogramSample h = delta(histogram);
      result.set_layer(metric + ".p50", percentile_ms(h, 0.5));
      result.set_layer(metric + ".p99", percentile_ms(h, 0.99));
    }
    const double batches = static_cast<double>(std::max<std::size_t>(1, stats.batches));
    result.set_layer("serve.tiles_per_batch",
                     static_cast<double>(stats.session.tiles) / batches);
    result.set_layer("serve.cross_scene_batch_frac",
                     static_cast<double>(stats.cross_scene_batches) / batches);
    result.set_layer("serve.peak_queue_depth",
                     static_cast<double>(stats.peak_queue_depth));
    result.set_layer("serve.peak_replicas",
                     static_cast<double>(stats.peak_replicas));
    result.set_layer("serve.cache_hit_frac", hit_frac);
    result.set_layer("load.lateness_ms.p99", quantile(lateness, 0.99));
    const double wall = since(open_start);
    result.table = layer_table(tracer.spans(), wall, 1);
  }
  return result;
}

}  // namespace perfbench

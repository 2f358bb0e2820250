// autolabel_fleet — the paper's data-preparation clock (Tables I-II).
//
// core::prepare_corpus under CorpusExecution::streaming(4) on a 4-thread
// pool: a fleet of cloudy and clear scenes goes through Acquire ->
// CloudFilter -> AutoLabel -> ManualLabel -> TileSplit into 256x256 tiles.
// Set-up computes the batch-mode corpus as the reference; every streamed
// scene's tiles must hash (FNV-128) to the reference digest of that scene.
//
// Traced mode drives the same stages (core::make_corpus_stages) through a
// core::StreamingExecutor, each wrapped in a timing SceneStage decorator,
// and alternates traced with untraced passes to measure the overhead.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "bench.h"
#include "core/corpus.h"
#include "core/stages.h"
#include "core/streaming.h"
#include "par/thread_pool.h"
#include "util/hash.h"
#include "util/mem_stats.h"

namespace perfbench {
namespace {

namespace core = polarice::core;
namespace util = polarice::util;
namespace img = polarice::img;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kWindow = 4;
constexpr int kTileSize = 256;

struct FleetShape {
  int scenes;
  int scene_size;
};

core::CorpusConfig corpus_config(const FleetShape& shape, std::uint64_t seed) {
  core::CorpusConfig config;
  config.acquisition.num_scenes = shape.scenes;
  config.acquisition.scene_size = shape.scene_size;
  config.acquisition.tile_size = kTileSize;
  config.acquisition.cloudy_scene_fraction = 0.5;
  // Scene i uses seed + i; keep the seeds of different runs disjoint.
  config.acquisition.seed = 1'000'000 + seed * 1'000;
  config.manual.seed = 7'000'000 + seed * 1'000;
  return config;
}

void hash_image(util::Fnv128& h, const img::ImageU8& image) {
  h.update_le(image.width());
  h.update_le(image.height());
  h.update_le(image.channels());
  h.update(image.data(), image.size());
}

/// One FNV-128 digest per scene over every tile field, in tile order.
std::vector<util::Fnv128> scene_digests(
    const std::vector<core::LabeledTile>& tiles, int scenes) {
  std::vector<util::Fnv128> digests(static_cast<std::size_t>(scenes));
  for (const auto& t : tiles) {
    if (t.scene_index < 0 || t.scene_index >= scenes) continue;
    util::Fnv128& h = digests[static_cast<std::size_t>(t.scene_index)];
    for (const img::ImageU8* plane :
         {&t.rgb, &t.rgb_filtered, &t.rgb_clean, &t.truth, &t.auto_labels,
          &t.manual_labels}) {
      hash_image(h, *plane);
    }
    std::uint64_t cloud_bits = 0;
    std::memcpy(&cloud_bits, &t.cloud_fraction, sizeof cloud_bits);
    h.update_le(cloud_bits);
    h.update_le(t.tile_x);
    h.update_le(t.tile_y);
  }
  return digests;
}

std::size_t count_mismatches(const std::vector<util::Fnv128>& got,
                             const std::vector<util::Fnv128>& want) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i].lo != want[i].lo || got[i].hi != want[i].hi) {
      ++bad;
    }
  }
  return bad;
}

/// Timing decorator: one span per (stage, scene) around the real stage.
class TimedStage final : public core::SceneStage {
 public:
  TimedStage(std::unique_ptr<core::SceneStage> inner, std::string span,
             Tracer& tracer, double mb_per_scene)
      : inner_(std::move(inner)),
        span_(std::move(span)),
        tracer_(tracer),
        mb_per_scene_(mb_per_scene) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> consumes() const override {
    return inner_->consumes();
  }
  [[nodiscard]] std::vector<std::string> produces() const override {
    return inner_->produces();
  }
  void run(const polarice::par::ExecutionContext& ctx,
           core::ArtifactStore& store) override {
    inner_->run(ctx, store);
  }
  void run_scene(const polarice::par::ExecutionContext& ctx,
                 core::SceneSlot& slot) const override {
    ScopedSpan span(tracer_, span_.c_str(), slot.index, mb_per_scene_);
    inner_->run_scene(ctx, slot);
  }

 private:
  std::unique_ptr<core::SceneStage> inner_;
  std::string span_;
  Tracer& tracer_;
  double mb_per_scene_;
};

const std::map<std::string, std::string>& stage_layers() {
  static const std::map<std::string, std::string> layers = {
      {"acquire", "s2.acquire"},
      {"cloud_filter", "core.cloud_filter"},
      {"auto_label", "core.auto_label"},
      {"manual_label", "s2.manual_label"},
      {"tile_split", "core.tile_split"},
  };
  return layers;
}

}  // namespace

Result run_autolabel_fleet(const Options& options, Tracer& tracer) {
  const FleetShape shape = options.smoke ? FleetShape{2, 256}
                                         : FleetShape{8, 512};
  const double mpix_per_pass = static_cast<double>(shape.scenes) *
                               shape.scene_size * shape.scene_size / 1e6;
  polarice::par::ThreadPool pool(kThreads);
  const polarice::par::ExecutionContext ctx(&pool);
  Result result;

  // Set-up: the batch-mode corpus, the reference every pass is checked
  // against. Repeated so set-up time is a median too.
  core::CorpusConfig batch = corpus_config(shape, options.seed);
  batch.execution = core::CorpusExecution::batch();
  std::vector<util::Fnv128> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = SteadyClock::now();
    const auto digests =
        scene_digests(core::prepare_corpus(batch, ctx), shape.scenes);
    setup_s.push_back(since(start));
    if (rep > 0 && count_mismatches(digests, reference) != 0) {
      result.fail("batch corpus differs between set-up repetitions");
    }
    reference = digests;
  }
  result.set_e2e("setup_s", median(setup_s), "s");

  core::CorpusConfig streaming = corpus_config(shape, options.seed);
  streaming.execution = core::CorpusExecution::streaming(kWindow);

  // Timed passes. Traced runs alternate untraced and traced passes.
  std::vector<double> walls, traced_walls, peaks;
  std::size_t peak_in_flight = 0;
  bool quality_done = false;
  const auto window_start = SteadyClock::now();
  std::int64_t traced_ns = 0;
  for (int pass = 0;
       pass < 2 || since(window_start) < options.seconds; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    util::mem_reset_peak();
    const std::size_t resident = util::mem_current_bytes();
    const auto start = SteadyClock::now();
    const std::int64_t start_ns = tracer.now_ns();
    std::vector<core::LabeledTile> tiles;
    if (traced) {
      auto stages = core::make_corpus_stages(streaming);
      std::vector<std::unique_ptr<core::SceneStage>> timed;
      for (auto& stage : stages) {
        const std::string name = stage->name();
        const auto layer = stage_layers().find(name);
        timed.push_back(std::make_unique<TimedStage>(
            std::move(stage),
            layer == stage_layers().end() ? "core." + name : layer->second,
            tracer, mpix_per_pass * 3.0 / shape.scenes));
      }
      core::StreamingStats stats;
      tiles = core::StreamingExecutor(kWindow).run(
          timed, static_cast<std::size_t>(shape.scenes), ctx, &stats);
      peak_in_flight = std::max(peak_in_flight, stats.peak_in_flight);
    } else {
      tiles = core::prepare_corpus(streaming, ctx);
    }
    const double wall = since(start);
    (traced ? traced_walls : walls).push_back(wall);
    if (traced) traced_ns += tracer.now_ns() - start_ns;
    if (!traced) {
      peaks.push_back(static_cast<double>(util::mem_peak_bytes() - resident));
    }

    const std::size_t bad =
        count_mismatches(scene_digests(tiles, shape.scenes), reference);
    result.attempted += static_cast<std::size_t>(shape.scenes);
    result.failed += bad;
    if (bad) result.fail(std::to_string(bad) + " scenes differ from batch");

    if (!quality_done) {
      // Auto-label agreement with ground truth, from the streamed corpus.
      polarice::metrics::ConfusionMatrix confusion(3);
      for (const auto& t : tiles) {
        const std::uint8_t* truth = t.truth.data();
        const std::uint8_t* label = t.auto_labels.data();
        for (std::size_t i = 0; i < t.truth.size(); ++i) {
          confusion.add(truth[i], label[i]);
        }
      }
      result.set_e2e("label_accuracy", confusion.accuracy(), "fraction");
      result.set_e2e("label_miou", mean_iou(confusion), "fraction");
      result.set_named("autolabel_accuracy", confusion.accuracy(), "fraction");
      result.set_named("autolabel_miou", mean_iou(confusion), "fraction");
      quality_done = true;
    }
  }

  const double pass_s = median(walls);
  result.set_e2e("mpix_per_s", mpix_per_pass / pass_s, "Mpx/s");
  result.set_e2e("p50_ms", pass_s * 1e3, "ms");
  result.set_e2e("peak_mb", median(peaks) / (1 << 20), "MiB");
  result.set_named("corpus_mpix_per_s", mpix_per_pass / pass_s, "Mpx/s");
  result.set_named("corpus_peak_mb", median(peaks) / (1 << 20), "MiB");
  result.set_named("corpus_pass_ms", pass_s * 1e3, "ms");
  result.set_named("passes", static_cast<double>(walls.size()), "count");
  result.set_named("setup_s", median(setup_s), "s");

  if (options.trace && !traced_walls.empty()) {
    const std::vector<Span> spans = tracer.spans();
    const double passes = static_cast<double>(traced_walls.size());
    std::map<std::string, double> busy;
    for (const auto& s : spans) busy[s.name] += s.seconds();
    // Gaps between a scene's consecutive stages: a scene's spans, in start
    // order, come in runs of one per stage, one run per traced pass.
    std::map<std::uint64_t, std::vector<const Span*>> by_scene;
    for (const auto& s : spans) by_scene[s.id].push_back(&s);
    const std::size_t stages_per_pass = stage_layers().size();
    double gap_s = 0.0;
    for (auto& [scene, list] : by_scene) {
      std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
        return a->start_ns < b->start_ns;
      });
      for (std::size_t k = 1; k < list.size(); ++k) {
        if (k % stages_per_pass == 0) continue;  // first stage of a pass
        gap_s += static_cast<double>(std::max<std::int64_t>(
                     0, list[k]->start_ns - list[k - 1]->end_ns)) * 1e-9;
      }
    }
    double busy_total = 0.0;
    for (const auto& [layer, name] : stage_layers()) {
      const double b = busy[name];
      busy_total += b;
      result.set_layer(name + ".busy_s", b / passes);
      result.set_layer(name + ".mpix_per_s",
                       b > 0 ? mpix_per_pass * passes / b : 0.0);
    }
    const double traced_wall = static_cast<double>(traced_ns) * 1e-9;
    result.set_layer("core.streaming.stage_gap_s", gap_s / passes);
    result.set_layer("core.streaming.peak_in_flight",
                     static_cast<double>(peak_in_flight));
    result.set_layer("par.pool.busy_frac",
                     busy_total / (traced_wall * kThreads));
    result.set_layer("trace.overhead_s", median(traced_walls) - pass_s);
    result.table = layer_table(spans, traced_wall, static_cast<int>(kThreads));
  }
  return result;
}

}  // namespace perfbench

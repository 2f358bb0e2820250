#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include <unistd.h>

namespace perfbench {

const std::vector<ConvShape>& unet_conv_shapes() {
  // depth 2, base 8, 64x64 tiles: encoder, bottleneck, up-convs (2x2 same
  // conv after nearest upsampling), decoder, 1x1 head. dec1.conv2 and
  // dec0.conv2 repeat enc1.conv2 and enc0.conv2 and are not listed twice.
  static const std::vector<ConvShape> shapes = {
      {"enc0.conv1", 3, 8, 3, 64, false},
      {"enc0.conv2", 8, 8, 3, 64, true},
      {"enc1.conv1", 8, 16, 3, 32, true},
      {"enc1.conv2", 16, 16, 3, 32, true},
      {"bottleneck.conv1", 16, 32, 3, 16, true},
      {"bottleneck.conv2", 32, 32, 3, 16, true},
      {"up1.conv", 32, 16, 2, 32, true},
      {"dec1.conv1", 32, 16, 3, 32, true},
      {"up0.conv", 16, 8, 2, 64, true},
      {"dec0.conv1", 16, 8, 3, 64, true},
      {"head", 8, 3, 1, 64, true},
  };
  return shapes;
}

polarice::nn::UNetConfig unet_config(bool dropout, std::uint64_t seed) {
  polarice::nn::UNetConfig config;
  config.depth = kModelDepth;
  config.base_channels = kModelBase;
  config.use_dropout = dropout;
  config.dropout_rate = kDropout;
  config.seed = seed;
  return config;
}

const std::vector<Metric>& e2e_catalogue() {
  static const std::vector<Metric> catalogue = {
      {"setup_s", 0, "s"},
      {"mpix_per_s", 0, "Mpx/s"},
      {"p50_ms", 0, "ms"},
      {"label_accuracy", 0, "fraction"},
      {"label_miou", 0, "fraction"},
      {"peak_mb", 0, "MiB"},
  };
  return catalogue;
}

const std::vector<Metric>& layer_catalogue() {
  static const std::vector<Metric> catalogue = [] {
    std::vector<Metric> c;
    for (const char* stage : {"s2.acquire", "core.cloud_filter",
                              "core.auto_label", "s2.manual_label",
                              "core.tile_split"}) {
      c.push_back({std::string(stage) + ".busy_s", 0, "s"});
      c.push_back({std::string(stage) + ".mpix_per_s", 0, "Mpx/s"});
    }
    c.push_back({"core.streaming.stage_gap_s", 0, "s"});
    c.push_back({"core.streaming.peak_in_flight", 0, "count"});
    c.push_back({"par.pool.busy_frac", 0, "fraction"});
    for (const char* part : {"nn.data.next_s", "nn.unet.forward_s",
                             "tensor.softmax_xent_s", "nn.unet.backward_s",
                             "nn.adam.step_s", "nn.step.unattributed_s"}) {
      c.push_back({part, 0, "s"});
    }
    for (const auto& shape : unet_conv_shapes()) {
      c.push_back({std::string("tensor.conv_fwd.") + shape.layer + ".gflops",
                   0, "GF/s"});
    }
    for (const auto& shape : unet_conv_shapes()) {
      c.push_back({std::string("tensor.conv_bwd.") + shape.layer + ".gflops",
                   0, "GF/s"});
    }
    c.push_back({"tensor.gemm_nn.gflops", 0, "GF/s"});
    c.push_back({"tensor.gemm_nn_ref.gflops", 0, "GF/s"});
    for (const char* h : {"serve.queue_wait_ms", "serve.batch_fill_ms",
                          "serve.forward_ms", "serve.stitch_ms"}) {
      c.push_back({std::string(h) + ".p50", 0, "ms"});
      c.push_back({std::string(h) + ".p99", 0, "ms"});
    }
    c.push_back({"serve.tiles_per_batch", 0, "count"});
    c.push_back({"serve.cross_scene_batch_frac", 0, "fraction"});
    c.push_back({"serve.peak_queue_depth", 0, "count"});
    c.push_back({"serve.peak_replicas", 0, "count"});
    c.push_back({"serve.cache_hit_frac", 0, "fraction"});
    c.push_back({"core.cloud_filter.scene_ms", 0, "ms"});
    c.push_back({"nn.unet.forward_batch_ms", 0, "ms"});
    c.push_back({"load.lateness_ms.p99", 0, "ms"});
    c.push_back({"ddp.step_ms.w1", 0, "ms"});
    c.push_back({"ddp.step_ms.w2", 0, "ms"});
    c.push_back({"ddp.rejoins", 0, "count"});
    c.push_back({"ddp.checkpoints", 0, "count"});
    c.push_back({"ddp.allreduce_ms", 0, "ms"});
    c.push_back({"ddp.allreduce_bytes_per_step", 0, "bytes"});
    c.push_back({"ddp.checkpoint.write_ms", 0, "ms"});
    c.push_back({"ddp.checkpoint.bytes", 0, "bytes"});
    c.push_back({"trace.overhead_s", 0, "s"});
    return c;
  }();
  return catalogue;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean_iou(const polarice::metrics::ConfusionMatrix& confusion) {
  double sum = 0.0;
  int classes = 0;
  for (int c = 0; c < confusion.num_classes(); ++c) {
    const double tp = static_cast<double>(confusion.count(c, c));
    double fp = 0.0, fn = 0.0;
    for (int o = 0; o < confusion.num_classes(); ++o) {
      if (o == c) continue;
      fp += static_cast<double>(confusion.count(o, c));
      fn += static_cast<double>(confusion.count(c, o));
    }
    if (tp + fp + fn == 0) continue;
    sum += tp / (tp + fp + fn);
    ++classes;
  }
  return classes ? sum / classes : 0.0;
}

void Tracer::record(const std::string& name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id, double work) {
  static std::atomic<int> next_tid{0};
  thread_local const int tid = next_tid.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, tid, id, work});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    const auto dot = s.name.find('.');
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.name.substr(0, dot)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  double wall_s, int lanes) {
  // Self time: a span nested inside another on the same thread is its
  // child; self = duration - sum of direct children's durations.
  std::map<int, std::vector<const Span*>> by_thread;
  for (const auto& s : spans) by_thread[s.tid].push_back(&s);
  std::map<const Span*, double> child_s;
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->end_ns > b->end_ns;
    });
    std::vector<const Span*> stack;
    for (const Span* s : list) {
      while (!stack.empty() && stack.back()->end_ns <= s->start_ns) {
        stack.pop_back();
      }
      if (!stack.empty() && s->end_ns <= stack.back()->end_ns) {
        child_s[stack.back()] += s->seconds();
      }
      stack.push_back(s);
    }
  }
  std::map<std::string, LayerRow> rows;
  std::map<std::string, double> work;
  for (const auto& s : spans) {
    LayerRow& row = rows[s.name];
    row.layer = s.name;
    ++row.calls;
    row.busy_s += s.seconds();
    row.self_s += s.seconds() - child_s[&s];
    work[s.name] += s.work;
  }
  std::vector<LayerRow> table;
  double self_total = 0.0;
  for (auto& [name, row] : rows) {
    row.pct_wall = wall_s > 0 ? 100.0 * row.busy_s / wall_s : 0.0;
    if (work[name] > 0 && row.busy_s > 0) {
      row.rate = work[name] / row.busy_s;
      row.rate_unit = name.rfind("tensor.", 0) == 0 ? "GF/s" : "MB/s";
    }
    self_total += row.self_s;
    table.push_back(row);
  }
  LayerRow unattributed;
  unattributed.layer = "(unattributed)";
  unattributed.busy_s = std::max(0.0, wall_s * lanes - self_total);
  unattributed.self_s = unattributed.busy_s;
  unattributed.pct_wall = wall_s > 0 ? 100.0 * unattributed.busy_s / wall_s : 0;
  table.push_back(unattributed);
  return table;
}

RunDir::RunDir(const std::string& root, const std::string& tag) {
  path_ = root + "/" + tag + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

RunDir::~RunDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench

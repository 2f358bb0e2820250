#pragma once
// Shared vocabulary of the repository benchmark: run options, the result a
// workload returns, the metric catalogue, order statistics, and the span
// recorder behind traced mode.
//
// Every workload is driven from outside the library, through public calls
// only. Spans are recorded here, around those calls; nothing inside src/
// is instrumented for the benchmark.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "nn/unet.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;             // toy sizes, for the benchmark's own tests
  std::string run_dir = ".bench_run";  // scratch inside the checkout
  std::string trainer_bin;        // polarice_trainer (train_fleet)
  std::string trace_out;          // Chrome trace-event JSON (traced mode)
  std::string record_out;         // full run record (JSON)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced per-layer table.
struct LayerRow {
  std::string layer;
  std::size_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
  double pct_wall = 0.0;
  double rate = 0.0;       // work / busy
  std::string rate_unit;   // "GF/s", "MB/s" or ""
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool checks_ok = true;            // every correctness check passed
  std::vector<std::string> errors;  // why a check failed
  std::vector<Metric> e2e;          // the BENCHMARK.json end_to_end slots
  std::vector<Metric> named;        // the workload's own metric names
  std::vector<Metric> layer;        // per-layer metrics (traced mode)
  std::vector<LayerRow> table;      // per-layer table (traced mode)

  void fail(const std::string& why) {
    checks_ok = false;
    if (errors.size() < 16) errors.push_back(why);
  }
  void set_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void set_named(const std::string& name, double value,
                 const std::string& unit) {
    named.push_back({name, value, unit});
  }
  void set_layer(const std::string& name, double value) {
    layer.push_back({name, value, ""});
  }
};

// ---- shared geometry ---------------------------------------------------------

// The U-Net every tensor-bound workload runs: TrainingWorkflow's U-Net-Auto
// shape at benchmark scale.
constexpr int kModelDepth = 2;
constexpr int kModelBase = 8;
constexpr int kModelTile = 64;
constexpr int kTrainBatch = 4;
constexpr float kDropout = 0.2f;

/// One distinct conv shape of that U-Net (the first layer that has it).
struct ConvShape {
  const char* layer;
  int in_ch, out_ch, k, hw;  // square input of hw x hw
  bool input_grad;           // false for the first conv (images)
};
const std::vector<ConvShape>& unet_conv_shapes();

/// That U-Net's config; `dropout` only matters when training.
polarice::nn::UNetConfig unet_config(bool dropout, std::uint64_t seed);

/// The end-to-end slots every workload fills, in BENCHMARK.json order.
const std::vector<Metric>& e2e_catalogue();
/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run emits all of them; layers a workload never enters read 0.
const std::vector<Metric>& layer_catalogue();

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Mean intersection-over-union over the classes present in truth or
/// prediction.
double mean_iou(const polarice::metrics::ConfusionMatrix& confusion);

/// Seconds since `start` on the steady clock.
inline double since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---- spans -------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::string name;        // layer-qualified, e.g. "core.cloud_filter"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;
  std::uint64_t id = 0;    // scene / step / request identity
  double work = 0.0;       // GF or MB done inside the span (0 = none)
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span recorder. Disabled recorders cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(SteadyClock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - epoch_)
        .count();
  }
  void record(const std::string& name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t id = 0, double work = 0.0);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON ("X" complete events), which Perfetto opens.
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  SteadyClock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id = 0,
             double work = 0.0)
      : tracer_(tracer), name_(name), id_(id), work_(work),
        start_(tracer.enabled() ? tracer.now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) {
      tracer_.record(name_, start_, tracer_.now_ns(), id_, work_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_;
  double work_;
  std::int64_t start_;
};

/// Aggregates spans into per-layer rows. `lanes` is how many threads could
/// have been busy (wall x lanes is the capacity the unattributed row is
/// measured against). The rate column is GF/s for tensor.* spans, whose
/// work is GFLOP, and MB/s for the rest, whose work is MB.
std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  double wall_s, int lanes);

/// Per-run scratch directory under Options::run_dir, removed on destruction.
class RunDir {
 public:
  RunDir(const std::string& root, const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// ---- workloads ----------------------------------------------------------------

Result run_autolabel_fleet(const Options& options, Tracer& tracer);
Result run_train_unet(const Options& options, Tracer& tracer);
Result run_serve_cold(const Options& options, Tracer& tracer);
Result run_train_fleet(const Options& options, Tracer& tracer);

/// Kernel probes shared by every traced run: conv layers of the benchmark
/// U-Net, GEMM vs its reference, the scene filter, a batched forward, an
/// all-reduce over two socket ranks, and a checkpoint write.
void run_layer_probes(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench

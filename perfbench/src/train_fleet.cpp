// train_fleet — the distributed-training clock (Table III).
//
// Real polarice_trainer processes over the unix-socket mesh, at world 1 and
// world 2, alternating until the window ends. They use train_unet's U-Net
// geometry and global batch on the trainer's synthetic data; dropout is
// off (FleetTrainer rejects it) and rank 0 writes checkpoints. Every run
// starts from an empty directory, so nothing resumes.
//
// Correctness: every rank exits 0, and the final parameters are byte-
// identical across ranks and between world 1 and world 2.

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "bench.h"
#include "ddp/fleet_trainer.h"
#include "nn/trainer.h"
#include "nn/unet.h"

namespace perfbench {
namespace {

namespace nn = polarice::nn;
namespace ddp = polarice::ddp;

constexpr int kClasses = 3;  // UNetConfig::num_classes, as unet_config() leaves it

struct FleetShape {
  int samples;
  int epochs;
};

/// One child process; killed and reaped on destruction if still running.
class Child {
 public:
  /// Starts `binary args...` with stdout to `out_path` and stderr to
  /// `err_path`.
  Child(const std::string& binary, const std::vector<std::string>& args,
        const std::string& out_path, const std::string& err_path) {
    std::vector<std::string> argv_store{binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      for (const auto& [path, target] :
           {std::pair{out_path.c_str(), STDOUT_FILENO},
            std::pair{err_path.c_str(), STDERR_FILENO}}) {
        const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
          ::dup2(fd, target);
          ::close(fd);
        }
      }
      std::vector<char*> argv;
      for (auto& a : argv_store) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait();
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reaps the child; returns its exit code (-1 for a signal) and records
  /// its peak resident set.
  int wait() {
    int status = 0;
    struct rusage usage {};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    max_rss_kb_ = usage.ru_maxrss;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  [[nodiscard]] long max_rss_kb() const noexcept { return max_rss_kb_; }

 private:
  pid_t pid_ = -1;
  long max_rss_kb_ = 0;
};

struct FleetRun {
  double wall_s = 0.0;
  int failed_ranks = 0;
  long steps = 0;        // optimizer steps of rank 0
  long rejoins = 0;      // summed over ranks
  long checkpoints = 0;  // rank 0
  double loss = 0.0;
  double max_rss_mb = 0.0;
  std::vector<std::string> params;  // per rank, UNet::save bytes
};

std::map<std::string, std::string> parse_summary(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::map<std::string, std::string> fields;
  while (std::getline(in, line)) {
    if (line.rfind("TRAINFLEET ", 0) != 0) continue;
    std::istringstream tokens(line.substr(11));
    std::string token;
    while (tokens >> token) {
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        fields[token.substr(0, eq)] = token.substr(eq + 1);
      }
    }
  }
  return fields;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

FleetRun run_fleet(const Options& options, const std::string& dir, int world,
                   const FleetShape& shape) {
  std::filesystem::create_directories(dir + "/sock");
  const std::vector<std::string> common = {
      "--world", std::to_string(world),
      "--socket_dir", dir + "/sock",
      "--checkpoint_dir", dir + "/ckpt",
      "--checkpoint_every", "16",
      "--epochs", std::to_string(shape.epochs),
      "--batch", std::to_string(kTrainBatch / world),
      "--seed", std::to_string(7 + options.seed),
      "--model_depth", std::to_string(kModelDepth),
      "--model_channels", std::to_string(kModelBase),
      "--model_seed", std::to_string(5 + options.seed),
      "--samples", std::to_string(shape.samples),
      "--channels", "3",
      "--height", std::to_string(kModelTile),
      "--width", std::to_string(kModelTile),
      "--classes", std::to_string(kClasses),
      "--data_seed", std::to_string(11 + options.seed),
      "--establish_ms", "30000",
      "--collective_ms", "30000",
  };
  FleetRun run;
  const auto start = SteadyClock::now();
  std::vector<std::unique_ptr<Child>> ranks;
  for (int r = 0; r < world; ++r) {
    std::vector<std::string> args = common;
    args.insert(args.end(), {"--rank", std::to_string(r), "--out",
                             dir + "/params-" + std::to_string(r) + ".bin"});
    const std::string log = dir + "/rank-" + std::to_string(r);
    ranks.push_back(std::make_unique<Child>(options.trainer_bin, args,
                                            log + ".out", log + ".err"));
  }
  std::vector<int> codes;
  for (auto& rank : ranks) codes.push_back(rank->wait());
  run.wall_s = since(start);
  for (int r = 0; r < world; ++r) {
    const auto fields =
        parse_summary(dir + "/rank-" + std::to_string(r) + ".out");
    if (codes[static_cast<std::size_t>(r)] != 0 || !fields.count("steps")) {
      ++run.failed_ranks;
      run.params.emplace_back();
      continue;
    }
    run.rejoins += std::stol(fields.at("rejoins"));
    if (r == 0) {
      run.steps = std::stol(fields.at("steps"));
      run.checkpoints = std::stol(fields.at("checkpoints"));
      run.loss = std::stod(fields.at("loss"));
    }
    run.max_rss_mb = std::max(
        run.max_rss_mb,
        static_cast<double>(ranks[static_cast<std::size_t>(r)]->max_rss_kb()) /
            1024.0);
    run.params.push_back(
        slurp(dir + "/params-" + std::to_string(r) + ".bin"));
  }
  return run;
}

}  // namespace

Result run_train_fleet(const Options& options, Tracer& tracer) {
  Result result;
  if (options.trainer_bin.empty() ||
      ::access(options.trainer_bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("--trainer_bin must name polarice_trainer");
  }
  const FleetShape shape =
      options.smoke ? FleetShape{8, 1} : FleetShape{128, 2};
  const RunDir root(options.run_dir, "fleet");
  int run_index = 0;
  auto next_dir = [&] {
    return root.path() + "/run-" + std::to_string(run_index++);
  };

  // Set-up: a minimal world-1 fleet (process start, mesh, one short epoch).
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = SteadyClock::now();
    const FleetRun warm = run_fleet(options, next_dir(), 1, FleetShape{16, 1});
    setup_s.push_back(since(start));
    if (warm.failed_ranks) result.fail("set-up fleet rank failed");
  }
  result.set_e2e("setup_s", median(setup_s), "s");

  std::map<int, std::vector<double>> rate, step_ms;
  std::vector<double> rss;
  std::string reference;  // the first world-1 rank-0 parameters
  std::string world2;     // the first world-2 rank-0 parameters
  long rejoins = 0, checkpoints = 0;
  double final_loss = 0.0;
  const double images = static_cast<double>(shape.samples) * shape.epochs;
  const auto window_start = SteadyClock::now();
  for (int pair = 0; pair == 0 || since(window_start) < options.seconds;
       ++pair) {
    for (const int world : {1, 2}) {
      const std::int64_t start_ns = tracer.now_ns();
      const FleetRun run = run_fleet(options, next_dir(), world, shape);
      if (tracer.enabled()) {
        tracer.record(world == 1 ? "ddp.fleet.w1" : "ddp.fleet.w2", start_ns,
                      tracer.now_ns(), static_cast<std::uint64_t>(pair));
      }
      result.attempted += static_cast<std::size_t>(world);
      std::size_t bad = static_cast<std::size_t>(run.failed_ranks);
      for (const auto& params : run.params) {
        if (params.empty()) continue;
        if (reference.empty()) reference = params;
        if (params != reference) ++bad;
      }
      result.failed += bad;
      if (bad) {
        result.fail("world " + std::to_string(world) + ": " +
                    std::to_string(bad) +
                    " ranks failed or ended with different parameters");
        continue;
      }
      rate[world].push_back(images / run.wall_s);
      step_ms[world].push_back(run.wall_s * 1e3 /
                               static_cast<double>(std::max(1L, run.steps)));
      rejoins += run.rejoins;
      checkpoints += run.checkpoints;
      if (world == 2) {
        if (world2.empty()) world2 = run.params.front();
        rss.push_back(run.max_rss_mb);
        final_loss = run.loss;
      }
    }
  }

  // Label quality is agreement of the world-2 model's labels with the
  // world-1 model's, on the fleet's own training data: world-size
  // invariance as the user sees it.
  polarice::metrics::ConfusionMatrix confusion(kClasses);
  if (!reference.empty() && !world2.empty()) {
    auto load = [&](const std::string& bytes, const char* name) {
      const std::string path = root.path() + "/" + name;
      std::ofstream(path, std::ios::binary) << bytes;
      auto model = std::make_unique<nn::UNet>(unet_config(false, 0));
      model->load(path);
      return model;
    };
    const auto w1_model = load(reference, "world1.bin");
    const auto w2_model = load(world2, "world2.bin");
    const nn::SegDataset data = ddp::make_synthetic_dataset(
        shape.samples, 3, kModelTile, kModelTile, kClasses, 11 + options.seed);
    for (std::size_t i = 0; i < data.size(); ++i) {
      confusion.add_all(nn::Trainer::predict(*w1_model, data[i]),
                        nn::Trainer::predict(*w2_model, data[i]));
    }
  }

  const double w1 = median(rate[1]);
  const double w2 = median(rate[2]);
  const double tile_mpix = kModelTile * kModelTile / 1e6;
  result.set_e2e("mpix_per_s", w2 * tile_mpix, "Mpx/s");
  result.set_e2e("p50_ms", median(step_ms[2]), "ms");
  result.set_e2e("label_accuracy", confusion.accuracy(), "fraction");
  result.set_e2e("label_miou", mean_iou(confusion), "fraction");
  result.set_e2e("peak_mb", median(rss), "MiB");
  result.set_named("fleet_images_per_s", w2, "images/s");
  result.set_named("fleet_images_per_s_w1", w1, "images/s");
  result.set_named("fleet_scaling_eff", w1 > 0 ? w2 / w1 / 2.0 : 0.0,
                   "fraction");
  result.set_named("fleet_final_loss", final_loss, "loss");
  result.set_named("fleet_runs_per_world",
                   static_cast<double>(rate[2].size()), "count");
  result.set_named("fleet_rank_max_rss_mb", median(rss), "MiB");

  if (options.trace) {
    result.set_layer("ddp.step_ms.w1", median(step_ms[1]));
    result.set_layer("ddp.step_ms.w2", median(step_ms[2]));
    result.set_layer("ddp.rejoins", static_cast<double>(rejoins));
    result.set_layer("ddp.checkpoints", static_cast<double>(checkpoints));
    if (rejoins != 0) result.fail("a fleet rank rejoined in a clean run");
    result.table = layer_table(tracer.spans(), since(window_start), 1);
  }
  return result;
}

}  // namespace perfbench

// perfbench_runner — runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload autolabel_fleet --seed 3 --seconds 20
//                    --trace 0 [--smoke] [--trainer_bin PATH]
//                    [--trace_out trace.json] [--record record.json]
//                    [--run_dir .bench_run]
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end slot untraced, or every per-layer metric traced.
// Lines before it are the human-readable tables. Exit status is 0 whenever
// a result was printed (a failed check shows as "correct": false), 2 on bad
// flags or an aborted workload.

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "build_stamp.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

std::string gemm_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
  return "avx2+fma";
#else
  return "portable";
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::map<std::string, std::string> stamp() {
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"march", PERFBENCH_MARCH},
      {"options", PERFBENCH_OPTIONS},
      {"gemm_isa", gemm_isa()},
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", cpu_model()},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

/// Orders `have` by `catalogue`; a slot the workload did not fill reads 0
/// and, when `required`, fails the run.
std::vector<Metric> by_catalogue(const std::vector<Metric>& catalogue,
                                 const std::vector<Metric>& have,
                                 bool required, Result& result) {
  std::map<std::string, double> values;
  for (const auto& m : have) values[m.name] = m.value;
  std::vector<Metric> out;
  for (const auto& slot : catalogue) {
    const auto it = values.find(slot.name);
    if (it == values.end() && required) {
      result.fail("metric " + slot.name + " was not measured");
    }
    out.push_back({slot.name, it == values.end() ? 0.0 : it->second,
                   slot.unit});
  }
  return out;
}

void print_tables(const Options& options, const Result& result) {
  std::printf("# workload %s  seed %llu  trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const auto& [key, value] : stamp()) {
    std::printf("#   %-10s %s\n", key.c_str(), value.c_str());
  }
  std::printf("# %-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : result.named) {
    std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!result.table.empty()) {
    std::printf("# %-34s %8s %10s %8s %10s %12s\n", "layer", "calls", "busy_s",
                "%wall", "self_s", "rate");
    for (const auto& row : result.table) {
      std::printf("  %-34s %8zu %10.4f %8.1f %10.4f %12s\n", row.layer.c_str(),
                  row.calls, row.busy_s, row.pct_wall, row.self_s,
                  row.rate_unit.empty()
                      ? "-"
                      : (num(row.rate).substr(0, 8) + " " + row.rate_unit)
                            .c_str());
    }
  }
  for (const auto& e : result.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }
}

void write_record(const Options& options, const Result& result,
                  const std::vector<Metric>& metrics, bool correct) {
  std::ofstream out(options.record_out);
  if (!out) throw std::runtime_error("cannot write " + options.record_out);
  out << "{\n  \"workload\": \"" << options.workload << "\",\n  \"seed\": "
      << options.seed << ",\n  \"seconds\": " << num(options.seconds)
      << ",\n  \"trace\": " << (options.trace ? 1 : 0)
      << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
      << ",\n  \"stamp\": {";
  bool first = true;
  for (const auto& [key, value] : stamp()) {
    out << (first ? "" : ", ") << "\"" << key << "\": \"" << json_escape(value)
        << "\"";
    first = false;
  }
  out << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << result.attempted
      << ",\n  \"failed\": " << result.failed
      << ",\n  \"metrics\": " << metrics_json(metrics)
      << ",\n  \"named\": " << metrics_json(result.named)
      << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(result.errors[i]) << "\"";
  }
  out << "]\n}\n";
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value());
    } else if (flag == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--run_dir") {
      o.run_dir = value();
    } else if (flag == "--trainer_bin") {
      o.trainer_bin = value();
    } else if (flag == "--trace_out") {
      o.trace_out = value();
    } else if (flag == "--record") {
      o.record_out = value();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
  using Runner = Result (*)(const Options&, perfbench::Tracer&);
  const std::map<std::string, Runner> workloads = {
      {"autolabel_fleet", perfbench::run_autolabel_fleet},
      {"train_unet", perfbench::run_train_unet},
      {"serve_cold", perfbench::run_serve_cold},
      {"train_fleet", perfbench::run_train_fleet},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  Result result;
  std::vector<Metric> metrics;
  try {
    perfbench::Tracer tracer(options.trace);
    result = it->second(options, tracer);
    if (options.trace) {
      perfbench::run_layer_probes(options, tracer, result);
      if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
      metrics = by_catalogue(perfbench::layer_catalogue(), result.layer,
                             /*required=*/false, result);
    } else {
      metrics = by_catalogue(perfbench::e2e_catalogue(), result.e2e,
                             /*required=*/true, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  const bool correct = result.checks_ok && result.failed == 0;

  print_tables(options, result);
  if (!options.record_out.empty()) {
    write_record(options, result, metrics, correct);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

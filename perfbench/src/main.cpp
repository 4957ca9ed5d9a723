// perfbench: runs one workload and writes its result as JSON.
//
//   perfbench --workload <scan-simd|churn-mutable|fpga-u280> --seed N
//             --seconds S --trace 0|1 --out FILE --work-dir DIR
//
// Exit status: 0 for a correct, valid run; 1 when an output check
// failed (the result file still says why); 2 for a usage error or an
// exception; 3 when the measurement was invalid (the load generator fell
// behind its schedule).  perfbench/run.py is the front end that builds
// this binary and turns the result file into the benchmark's report.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "simd/topk_simd.hpp"
#include "util/cpu_features.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void print_table(const char* title,
                 const std::vector<perfbench::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& metric : metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument '" << key << "'\n";
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "out", "work-dir"}) {
    if (args.count(required) == 0) {
      std::cerr << "perfbench: missing --" << required << "\n";
      return 2;
    }
  }
  perfbench::RunSettings settings;
  const std::string workload = args["workload"];
  perfbench::RunResult result;
  try {
    settings.seed = std::stoull(args["seed"]);
    settings.seconds = std::stod(args["seconds"]);
    settings.trace = args["trace"] == "1";
    settings.work_dir = args["work-dir"];
    if (!(settings.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    if (workload == "scan-simd") {
      result = perfbench::run_scan_simd(settings);
    } else if (workload == "churn-mutable") {
      result = perfbench::run_churn_mutable(settings);
    } else if (workload == "fpga-u280") {
      result = perfbench::run_fpga_u280(settings);
    } else {
      throw std::invalid_argument("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }

  const std::string isa =
      topk::simd::to_string(topk::simd::dispatch_level());
  std::ostringstream json;
  json << "{\"workload\": " << json_string(workload)
       << ", \"seed\": " << settings.seed
       << ", \"seconds\": " << json_number(settings.seconds)
       << ", \"trace\": " << (settings.trace ? 1 : 0)
       << ", \"valid\": " << (result.valid ? "true" : "false")
       << ", \"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed
       << ", \"metrics\": " << json_metrics(result.metrics)
       << ", \"layers\": " << json_metrics(result.layers)
       << ", \"info\": " << json_metrics(result.info)
       << ", \"stamp\": {\"cpu_model\": " << json_string(cpu_model())
       << ", \"nproc\": " << topk::util::default_thread_count()
       << ", \"isa\": " << json_string(isa) << "}, \"problems\": [";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    json << (i == 0 ? "" : ", ") << json_string(result.problems[i]);
  }
  json << "]}\n";
  std::ofstream(args["out"]) << json.str();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d cpu=\"%s\" nproc=%d "
              "isa=%s\n",
              workload.c_str(), static_cast<unsigned long long>(settings.seed),
              settings.seconds, settings.trace ? 1 : 0, cpu_model().c_str(),
              topk::util::default_thread_count(), isa.c_str());
  print_table(settings.trace ? "end-to-end (traced, reference only)"
                             : "end-to-end",
              result.metrics);
  if (settings.trace) {
    print_table("per-layer", result.layers);
  }
  print_table("workload", result.info);
  for (const auto& problem : result.problems) {
    std::printf("PROBLEM: %s\n", problem.c_str());
  }
  std::fflush(stdout);
  if (!result.valid) {
    return 3;
  }
  return result.correct ? 0 : 1;
}

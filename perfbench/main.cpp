// pga_perfbench: one run of one benchmark workload.
//
//   pga_perfbench --workload assembly|fleet-burst|fleet-stream --seed N
//                 --seconds S --trace 0|1 [--smoke]
//                 [--out-dir DIR] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics from untraced passes; --trace 1
// prints the per-layer metrics from traced passes and writes DIR/<workload>-
// seed<N>.trace.json (Chrome trace events) and .layers.json (per-layer
// summary with the host fingerprint). --smoke shrinks every input for the
// benchmark's own test. The last stdout line is the JSON result; the exit
// code is 1 when an output check failed, 2 on bad usage or an error.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "host.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

int usage() {
  std::cerr << "usage: pga_perfbench --workload assembly|fleet-burst|fleet-stream "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR] "
               "[--work-dir DIR]\n";
  return 2;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
};

void write_layers(const fs::path& path, const HostInfo& host, const RunOptions& options,
                  const Tracer& tracer) {
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ", \"host\": " << host.json()
      << ", \"layers\": [\n";
  const auto layers = tracer.summary();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    out << "  {\"name\": " << json_string(layers[i].name)
        << ", \"calls\": " << layers[i].calls
        << ", \"total_s\": " << json_number(layers[i].total_s)
        << ", \"self_s\": " << json_number(layers[i].self_s) << "}"
        << (i + 1 < layers.size() ? "," : "") << "\n";
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") return usage();
        options.trace = trace == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else {
        return usage();
      }
    }
  } catch (const std::exception& err) {
    std::cerr << "pga_perfbench: " << err.what() << "\n";
    return usage();
  }
  if (!have_workload || !(options.seconds >= 0)) return usage();
  if (options.out_dir.empty()) options.out_dir = ".bench_build/traces";
  if (options.work_dir.empty()) options.work_dir = ".bench_build/work";
  options.work_dir /= options.workload + "-" + std::to_string(getpid());

  const HostInfo host = probe_host();
  Report report;
  report.note(host.render());
  Tracer tracer(options.trace);
  try {
    fs::create_directories(options.work_dir);
    const ScratchDir scratch{options.work_dir};
    if (options.workload == "assembly") {
      run_assembly(options, tracer, report);
    } else if (options.workload == "fleet-burst") {
      run_fleet(options, /*stream=*/false, tracer, report);
    } else if (options.workload == "fleet-stream") {
      run_fleet(options, /*stream=*/true, tracer, report);
    } else {
      return usage();
    }
    if (options.trace) {
      fs::create_directories(options.out_dir);
      const std::string stem =
          options.workload + "-seed" + std::to_string(options.seed);
      tracer.write_chrome_json(options.out_dir / (stem + ".trace.json"));
      write_layers(options.out_dir / (stem + ".layers.json"), host, options, tracer);
      for (const auto& layer : tracer.summary()) {
        char line[160];
        std::snprintf(line, sizeof(line), "layer %-26s calls=%-5zu total=%.6fs self=%.6fs",
                      layer.name.c_str(), layer.calls, layer.total_s, layer.self_s);
        report.note(line);
      }
      report.note("trace: " + (options.out_dir / (stem + ".trace.json")).string());
    }
  } catch (const std::exception& err) {
    std::cerr << "pga_perfbench: " << options.workload << ": " << err.what() << "\n";
    return 2;
  }
  report.print();
  return report.correct() ? 0 : 1;
}

// perfbench: the repository benchmark binary. Runs one workload from a seed
// and prints, as its last stdout line, one JSON object with the correctness
// ledger and every metric it measured. perfbench/run.py builds it, runs it,
// and selects the metrics BENCHMARK.json names for the run's mode.
//
// Usage:
//   perfbench --workload study|serve|fleet --seed N --seconds S --trace 0|1
//             --work-dir DIR [--cli PATH] [--scale full|tiny]
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "la/kernels/dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload study|serve|fleet --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--cli PATH] "
               "[--scale full|tiny]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scale") {
      config.scale = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--cli") {
      config.cli_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.work_dir.empty() ||
      config.seconds <= 0.0 ||
      (config.scale != "full" && config.scale != "tiny")) {
    return Usage();
  }
  ::mkdir(config.work_dir.c_str(), 0755);

  Report report;
  report.InfoStr("workload", config.workload);
  report.InfoNum("seed", static_cast<double>(config.seed));
  report.InfoNum("seconds", config.seconds);
  report.InfoNum("trace", config.trace ? 1 : 0);
  report.InfoStr("scale", config.scale);
  report.InfoNum("nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report.InfoStr("kernel_tier",
                 entmatcher::KernelTierName(entmatcher::ActiveKernelTier()));
  report.InfoStr("build_type", PERFBENCH_BUILD_TYPE);
  // Workloads overwrite what applies to them: 0 serve workers and shards
  // means the layer is not running; offered_rate 0 means a closed loop.
  report.InfoNum("serve_workers", 0);
  report.InfoNum("shards", 0);
  report.InfoNum("offered_rate", 0);

  Ledger ledger;
  std::string skipped;
  entmatcher::Status status;
  std::vector<std::string> bypassed;
  if (config.workload == "study") {
    status = RunStudy(config, &report, &ledger, &skipped);
    bypassed = {"serve.", "gen.", "fleet."};
  } else if (config.workload == "serve") {
    status = RunServe(config, &report, &ledger, &skipped);
    bypassed = {"fleet."};
  } else if (config.workload == "fleet") {
    status = RunFleet(config, &report, &ledger, &skipped);
    bypassed = {"serve.", "gen."};
  } else {
    return Usage();
  }
  Tracer::Global().SetEnabled(false);

  if (!skipped.empty()) {
    report.InfoStr("skipped", skipped);
    std::cout << "{\"info\": " << report.InfoJson() << "}\n";
    std::cerr << "skipped: " << skipped << "\n";
    return 3;
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  if (config.trace) {
    const std::string path = config.work_dir + "/trace.json";
    const entmatcher::Status written = Tracer::Global().WriteJson(path);
    if (!written.ok()) {
      std::cerr << "error: " << written.ToString() << "\n";
      return 1;
    }
    report.InfoStr("trace_file", path);
    report.InfoNum("spans", static_cast<double>(Tracer::Global().size()));
  }
  std::string bypassed_json = "[";
  for (size_t i = 0; i < bypassed.size(); ++i) {
    bypassed_json += (i == 0 ? "" : ", ") + JsonString(bypassed[i]);
  }
  report.Info("bypassed_layers", bypassed_json + "]");
  std::cout << "{\"info\": " << report.InfoJson() << "}\n";

  std::vector<std::string> names = report.Names();
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << report.MetricsJson(names) << "}"
            << std::endl;
  return 0;
}

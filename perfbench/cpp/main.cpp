// perfbench: the end-to-end RCA benchmark harness.
//
//   perfbench --workload paper-analyze|scenario-runtime|resident-query
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--work-dir DIR]
//
// Runs one workload for --seconds of timed work and prints a human-readable
// report to stderr. The last line on stdout is one JSON object:
//   {"correct": b, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 without that line when the workload cannot run.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-analyze|scenario-runtime|"
               "resident-query [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opts.workload = value();
      else if (arg == "--seed") opts.seed = std::stoull(value());
      else if (arg == "--seconds") opts.seconds = std::stod(value());
      else if (arg == "--trace") opts.trace = value() != "0";
      else if (arg == "--smoke") opts.smoke = true;
      else if (arg == "--work-dir") opts.work_dir = value();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: bad argument %s: %s\n", arg.c_str(),
                   e.what());
      return usage();
    }
  }
  if (!(opts.seconds > 0.0)) return usage();

  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(opts.work_dir);
    if (opts.workload == "paper-analyze") {
      out = perfbench::run_paper_analyze(opts);
    } else if (opts.workload == "scenario-runtime") {
      out = perfbench::run_scenario_runtime(opts);
    } else if (opts.workload == "resident-query") {
      out = perfbench::run_resident_query(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += out.correct && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    if (i > 0) json += ", ";
    // Names and units are fixed identifiers (harness.cpp); no escaping.
    json += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" +
            m.unit + "\"}";
    std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  json += "}}";
  std::fprintf(stderr, "perfbench: %s correct=%s attempted=%llu failed=%llu\n",
               opts.workload.c_str(), out.correct ? "true" : "false",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  std::printf("%s\n", json.c_str());
  return 0;
}

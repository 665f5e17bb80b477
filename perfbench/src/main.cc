// perfbench: the benchmark's measuring program. perfbench/run.py builds it
// and drives it; it can also be run directly:
//
//   perfbench run --workload wire_la --seed 1 --seconds 10 --trace 0
//   perfbench prepare-metro --seed 1 --store PATH
//   perfbench run --workload metro_store --seed 1 --seconds 10 --trace 0
//       --store PATH --store-write-s 0.4
//
// `run` prints human-readable lines, then one JSON line with the measured
// metrics, the answer digest and the answer-check counts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload wire_la|metro_store|"
               "sim_churn_la --seed N --seconds S --trace 0|1\n"
               "                     [--trace-out PATH] [--store PATH "
               "--store-write-s S]\n"
               "       perfbench prepare-metro --seed N --store PATH\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0.0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--store") {
      args.store = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (!ParseNumber(value, &number)) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return 2;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args.seconds = number;
    } else if (flag == "--trace") {
      args.trace = number != 0.0;
    } else if (flag == "--store-write-s") {
      args.store_write_s = number;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return Usage();
    }
  }
  if (argc % 2 != 0) return Usage();

  if (command == "prepare-metro") {
    if (args.store.empty()) return Usage();
    return perfbench::PrepareMetro(args.seed, args.store) ? 0 : 1;
  }
  if (command != "run" || args.seconds < 1.0) return Usage();

  perfbench::Report report;
  if (args.workload == "wire_la") {
    perfbench::RunWireLa(args, &report);
  } else if (args.workload == "metro_store") {
    if (args.store.empty()) return Usage();
    perfbench::RunMetroStore(args, &report);
  } else if (args.workload == "sim_churn_la") {
    perfbench::RunSimChurnLa(args, &report);
  } else {
    return Usage();
  }
  report.Print(args.workload, args.seed, args.trace);
  return report.correct() ? 0 : 1;
}

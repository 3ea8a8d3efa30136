// setm_perfbench: one run of one workload of the repository benchmark.
//
//   setm_perfbench --workload quest_d10k|quest_d10k_t4|retail_serve
//                  --seed N --seconds S --trace 0|1
//                  [--workdir DIR] [--trace-out FILE]
//   setm_perfbench --dump-csv DIR --seed N
//
// Prints one JSON report on its last stdout line: correct/attempted/failed,
// the end-to-end metrics (always), the per-layer metrics (--trace 1 only),
// the names of the per-layer counters that repeat exactly for one seed,
// and unbounded figures under "info". Exit 0 when every answer was
// correct, 1 otherwise, 2 on a usage error. perfbench/run.py builds this
// binary and turns the report into the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "inputs.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--trace-out FILE]\n"
               "       %s --dump-csv DIR --seed N\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setm::perfbench;
  Args args;
  std::string dump_dir;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* flag = argv[i];
    const char* v = value();
    if (v == nullptr) return Usage(argv[0]);
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(flag, "--workdir") == 0) {
      args.workdir = v;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = v;
    } else if (std::strcmp(flag, "--dump-csv") == 0) {
      dump_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!dump_dir.empty()) return DumpInputs(args.seed, dump_dir) ? 0 : 1;

  Report report;
  if (args.workload == "quest_d10k") {
    RunQuest(args, 1, &report);
  } else if (args.workload == "quest_d10k_t4") {
    RunQuest(args, 4, &report);
  } else if (args.workload == "retail_serve") {
    RunRetailServe(args, &report);
  } else {
    return Usage(argv[0]);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct && report.failed == 0 ? 0 : 1;
}

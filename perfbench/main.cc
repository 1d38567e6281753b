// rdfa_perfbench: runs one named workload of the repository benchmark and
// prints every metric by name with its unit, then one JSON line.
//
//   rdfa_perfbench --workload explore|endpoint|mixed-rw --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//   rdfa_perfbench --selftest
//
// Exit status: 0 = all answers checked correct and every metric reported;
// 1 = a failed operation or answer check; 2 = bad flags; 3 = a percentile had
// too few samples beyond it to be reported.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
int SelfTest();
}

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return perfbench::SelfTest();
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--shrink") {
      opt.shrink = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--setup-reps") {
      opt.setup_reps = std::atoi(value().c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0 || opt.shrink == 0 || opt.setup_reps < 1) {
    std::fprintf(stderr, "bad --seconds, --shrink or --setup-reps\n");
    return 2;
  }

  perfbench::Outcome out;
  if (workload == "explore") out = perfbench::RunExplore(opt);
  else if (workload == "endpoint") out = perfbench::RunEndpoint(opt);
  else if (workload == "mixed-rw") out = perfbench::RunMixedRw(opt);
  else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }

  out.report.PrintLines(stdout);
  std::printf("attempted %llu, failed %llu (wrong answers %llu), "
              "failed_ratio %.6f\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.wrong),
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  if (!out.report.complete()) {
    std::fprintf(stderr, "not every metric could be reported\n");
    return 3;
  }
  const bool correct = out.wrong == 0 && out.attempted > 0;
  std::printf("%s\n",
              out.report.Json(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return correct && out.failed == 0 ? 0 : 1;
}

// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload paths_packet|pool_flow|pool_control
//             --seed N --seconds S --trace 0|1 [--repo DIR] [--out-dir DIR]
//
// --trace 0 runs the untraced timed pass and prints the end-to-end metrics;
// --trace 1 runs the traced pass and prints the per-layer metrics. Both run
// the output checks. The last stdout line is the JSON result; the exit
// status is nonzero when any check fails. See README.md in this directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--repo DIR] [--out-dir DIR]\n"
               "  NAME: paths_packet | pool_flow | pool_control\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--repo") {
      options.repo = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) {
    return usage();
  }
  const bool packet = options.workload == "paths_packet";
  const bool pool = options.workload == "pool_flow" ||
                    options.workload == "pool_control";
  if (!packet && !pool) {
    return usage();
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::Report report;
  try {
    if (packet) {
      perfbench::run_packet_workload(options, report);
    } else {
      perfbench::run_pool_workload(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  report.print();
  return report.ok() ? 0 : 1;
}

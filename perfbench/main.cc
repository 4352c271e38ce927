// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload <convoy|noisy|ingest|corpus> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Run from the repository root (the corpus workload reads corpus/). Prints
// its checks and figures, then as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics and writes the spans
// to .bench_out/<workload>-seed<n>.spans.jsonl. Exits 1 when an output check
// fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <convoy|noisy|ingest|corpus> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (!(opt.seconds > 0)) {
        return Usage("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + arg).c_str());
    }
  }

  perfbench::Report report(opt.trace);
  if (opt.workload == "convoy" || opt.workload == "noisy") {
    perfbench::RunLiveWorkload(opt, opt.workload == "convoy", &report);
  } else if (opt.workload == "ingest") {
    perfbench::RunIngestWorkload(opt, &report);
  } else if (opt.workload == "corpus") {
    perfbench::RunCorpusWorkload(opt, &report);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  report.PrintResult();
  return report.correct() ? 0 : 1;
}

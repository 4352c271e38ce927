// The benchmark's workloads. Each drives the program through its public
// entry points only, prints its checks and metrics to stdout as it goes, and
// fills `report` with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/bench.h"

namespace perfbench {

// MakeScenario(kLockConvoy) on LiveMiniKv, or MakeScenario(kNoisyNeighbor)
// on LiveMiniWeb, served by LiveServer with Atropos fully on.
void RunLiveWorkload(const Options& options, bool convoy, Report* report);

// Fixed-rate instrumentation traffic through capi and ConcurrentFrontend.
void RunIngestWorkload(const Options& options, Report* report);

// Single-threaded replay of the committed scenario corpus.
void RunCorpusWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

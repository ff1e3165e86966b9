// The workloads. Each one loads a different layer, so a change to one
// layer shows in one workload and stays flat in the other; see README.md
// for the layer -> metric -> workload map.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunEmbedWrite(const RunConfig& config, Report* report);
void RunRestart(const RunConfig& config, Report* report);

// Writes the traced run's spans to config.trace_out and records the span
// count and each span name's p50 self time.
void WriteTrace(const RunConfig& config, const Tracer& tracer,
                Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

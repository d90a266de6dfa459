#ifndef GENALG_PERFBENCH_LAYERS_H_
#define GENALG_PERFBENCH_LAYERS_H_

// The traced run (--trace 1): per-layer attribution of a workload. It
// measures an untraced and a traced window of the workload (the
// difference is the tracing overhead), reads the program's metrics
// registry over the traced window, then times the public calls into each
// layer from outside, one query class at a time.

#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace genalg::perfbench {

/// Runs the traced run of `workload`, verifies the answers of its two
/// windows, and returns every per-layer metric.
/// Benchmark-side spans and the program's own span trees are written to
/// `trace_prefix` + "spans.json" and + "program.json".
std::vector<Metric> TraceRun(Workload* workload, double seconds,
                             const std::string& trace_prefix,
                             uint64_t* attempted, uint64_t* failed);

}  // namespace genalg::perfbench

#endif  // GENALG_PERFBENCH_LAYERS_H_

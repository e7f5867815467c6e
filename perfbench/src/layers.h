// In-process per-layer measurements for the traced run: each public
// entry point of a layer is called on the workload's own corpus and
// queries, inside a span, and reduced to one number.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LayerContext {
  const Workload& workload;
  std::string scratch_dir;  // created and removed by MeasureLayers
  uint64_t pending_delta;   // delta rows pending before a compaction
  Tracer* tracer;
};

/// Fills *out with metric name -> (value, unit). False with *error when
/// a layer call fails.
bool MeasureLayers(const LayerContext& ctx,
                   std::map<std::string, std::pair<double, std::string>>* out,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

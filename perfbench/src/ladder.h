// The traced run (--trace 1): one ladder over the workload's table and
// stream, FlatLpm -> Engine -> MappingTier -> codec -> server over
// loopback -> fleet, then the write path (clone, delta compile, publish).
// Every public call is wrapped in a span; the per-layer metrics are read
// from the spans and from the system's public counters.
#pragma once

#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

Tally RunLadder(const Options& options, Inputs* inputs, Metrics* metrics,
                Tracer* tracer);

}  // namespace perfbench

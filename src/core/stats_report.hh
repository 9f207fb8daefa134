/**
 * @file
 * Run-result reports built from RunMetrics: a one-object JSON summary
 * and an ASCII per-stack utilization heatmap. The full statistics dump
 * of an NDP run is the stats registry's
 * (NdpSystem::statsRegistry().dump(), printed by `abndp_sim --stats`).
 */

#ifndef ABNDP_CORE_STATS_REPORT_HH
#define ABNDP_CORE_STATS_REPORT_HH

#include <ostream>

#include "common/config.hh"
#include "core/metrics.hh"

namespace abndp
{

/** Write the headline metrics of a run as a single JSON object. */
void dumpJson(std::ostream &os, const SystemConfig &cfg,
              const RunMetrics &metrics);

/**
 * Draw an ASCII utilization heatmap of the stack mesh: per stack, the
 * mean core-busy fraction, 0-9 scaled (a Figure-9 style view of where
 * the hotspots sit).
 */
void dumpHeatmap(std::ostream &os, const SystemConfig &cfg,
                 const RunMetrics &metrics);

} // namespace abndp

#endif // ABNDP_CORE_STATS_REPORT_HH

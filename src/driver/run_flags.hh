/**
 * @file
 * Shared run command-line flags. The front ends that run simulations
 * from the command line (abndp_sim, design_matrix, sweep) understand
 * the same set — --trace-out, --stats-out, --stats-interval,
 * --mem-backend — and this helper is the one place that reads them
 * and applies them to a SystemConfig.
 */

#ifndef ABNDP_DRIVER_RUN_FLAGS_HH
#define ABNDP_DRIVER_RUN_FLAGS_HH

#include <string>

#include "common/cli.hh"
#include "common/config.hh"

namespace abndp
{

/**
 * Read the shared run flags from @p flags and apply them to @p cfg:
 * --trace-out and --stats-out set the output paths, --stats-interval
 * the interval-dump period, and --mem-backend=meter|ddr the memory
 * timing backend (fromName, so an unknown name fatal()s with
 * the valid set). An absent flag leaves @p cfg's value alone. A
 * nonempty @p tag is inserted into the output file names (tagPath), so
 * multi-run front ends give every cell its own file. @p multiCell
 * declares that several cells may run concurrently: interval stats
 * then require --stats-out (fatal() otherwise), because per-cell
 * interval dumps cannot share stdout.
 */
void applyRunFlags(const CliFlags &flags, SystemConfig &cfg,
                   const std::string &tag = "", bool multiCell = false);

} // namespace abndp

#endif // ABNDP_DRIVER_RUN_FLAGS_HH

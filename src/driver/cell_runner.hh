/**
 * @file
 * Parallel (design, workload) grid runner.
 *
 * Every cell of a benchmark grid is an independent, share-nothing
 * simulator instance, so cells parallelize perfectly across host
 * threads. This runner fans a vector of cells over a small thread pool
 * and lands each result at its cell's index, so the output order — and
 * therefore every table or JSON line built from it — is independent of
 * the thread count and of completion order. Each cell's simulation is
 * seeded purely by its own config, so the per-cell metrics are
 * bit-identical whether the grid runs on 1 thread or 64.
 */

#ifndef ABNDP_DRIVER_CELL_RUNNER_HH
#define ABNDP_DRIVER_CELL_RUNNER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "driver/experiment.hh"

namespace abndp
{

/** One independent (design, workload) cell of a benchmark grid. */
struct CellSpec
{
    Design design = Design::B;
    WorkloadSpec workload;
    /** Per-cell options (verify, cache-style / fault overrides). */
    ExperimentOptions opts;
    /**
     * Full config override for sweeps whose grid axis is a config knob
     * (camp count, mapping, cache ratio); replaces the shared base.
     */
    std::optional<SystemConfig> config;
};

/**
 * Progress callback: invoked after each cell completes, serialized
 * under the runner's lock, with (cells done so far, total cells, index
 * of the cell that just finished).
 */
using CellProgressFn =
    std::function<void(std::size_t, std::size_t, std::size_t)>;

/**
 * Start callback: invoked with a cell's index on the thread that runs
 * it, right before the cell starts (not serialized; a callback that
 * writes per-cell state must write only that cell's slot).
 */
using CellStartFn = std::function<void(std::size_t)>;

/**
 * Run all @p cells on top of @p base and return their metrics in cell
 * order. @p threads = 0 means hardware_concurrency(); the pool size is
 * clamped to the cell count, and threads <= 1 runs inline on the
 * calling thread. fatal()/panic() inside a cell aborts the process, as
 * in a sequential run. An exception a cell throws (std::bad_alloc on
 * an input too large for the host) is rethrown on the calling thread,
 * as in a sequential run: the pool starts no further cell and lets the
 * running ones finish first.
 */
std::vector<RunMetrics> runCells(const SystemConfig &base,
                                 const std::vector<CellSpec> &cells,
                                 std::uint32_t threads,
                                 const CellProgressFn &progress = {},
                                 const CellStartFn &onStart = {});

/** Threads to use by default: all hardware threads, at least 1. */
std::uint32_t defaultThreads();

} // namespace abndp

#endif // ABNDP_DRIVER_CELL_RUNNER_HH

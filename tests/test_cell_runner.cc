/** @file Unit tests for the parallel (design, workload) grid runner. */

#include <atomic>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "driver/cell_runner.hh"

namespace abndp
{

namespace
{

std::vector<CellSpec>
smallGrid()
{
    std::vector<CellSpec> cells;
    for (const char *wl : {"pr", "bfs"}) {
        for (Design d : {Design::B, Design::O}) {
            CellSpec cell;
            cell.design = d;
            cell.workload = WorkloadSpec::tiny(wl);
            cells.push_back(cell);
        }
    }
    return cells;
}

} // namespace

TEST(CellRunner, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(defaultThreads(), 1u);
}

TEST(CellRunner, EmptyGridReturnsNoResults)
{
    EXPECT_TRUE(runCells(SystemConfig{}, {}, 4).empty());
}

// The per-cell simulations share nothing and are seeded purely by
// their own config, so every simulated metric must be bit-identical
// whether the grid runs sequentially or on a thread pool.
TEST(CellRunner, DeterministicAcrossThreads)
{
    SystemConfig base;
    std::vector<CellSpec> cells = smallGrid();
    std::vector<RunMetrics> seq = runCells(base, cells, 1);
    std::vector<RunMetrics> par = runCells(base, cells, 4);
    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(seq[i].ticks, par[i].ticks) << "cell " << i;
        EXPECT_EQ(seq[i].tasks, par[i].tasks) << "cell " << i;
        EXPECT_EQ(seq[i].epochs, par[i].epochs) << "cell " << i;
        EXPECT_EQ(seq[i].interHops, par[i].interHops) << "cell " << i;
        EXPECT_EQ(seq[i].simEvents, par[i].simEvents) << "cell " << i;
        EXPECT_EQ(seq[i].stolenTasks, par[i].stolenTasks)
            << "cell " << i;
        EXPECT_EQ(seq[i].coreActiveTicks, par[i].coreActiveTicks)
            << "cell " << i;
    }
}

// Results land at their cell's index, matching a direct sequential
// runExperiment() of the same spec — completion order is irrelevant.
TEST(CellRunner, ResultsMatchDirectExperimentInCellOrder)
{
    SystemConfig base;
    std::vector<CellSpec> cells = smallGrid();
    std::vector<RunMetrics> results = runCells(base, cells, 2);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        RunMetrics direct = runExperiment(base, cells[i].design,
                                          cells[i].workload,
                                          cells[i].opts);
        EXPECT_EQ(results[i].ticks, direct.ticks) << "cell " << i;
        EXPECT_EQ(results[i].tasks, direct.tasks) << "cell " << i;
        EXPECT_EQ(results[i].interHops, direct.interHops)
            << "cell " << i;
    }
}

TEST(CellRunner, PerCellConfigOverridesBase)
{
    SystemConfig base;
    SystemConfig half = base;
    half.unitsPerStack = base.unitsPerStack / 2;

    CellSpec plain;
    plain.workload = WorkloadSpec::tiny("pr");
    CellSpec overridden = plain;
    overridden.config = half;

    std::vector<RunMetrics> results =
        runCells(base, {plain, overridden}, 2);
    // coreActiveTicks is sized numUnits * coresPerUnit, so the override
    // is visible structurally.
    EXPECT_EQ(results[0].coreActiveTicks.size(),
              std::size_t{base.numCores()});
    EXPECT_EQ(results[1].coreActiveTicks.size(),
              std::size_t{half.numCores()});
}

TEST(CellRunner, ProgressReportsEveryCellExactlyOnce)
{
    std::vector<CellSpec> cells = smallGrid();
    std::atomic<std::size_t> calls{0};
    std::vector<int> seen(cells.size(), 0);
    runCells(SystemConfig{}, cells, 4,
             [&](std::size_t done, std::size_t total, std::size_t idx) {
                 // Serialized under the runner's lock.
                 ++calls;
                 ASSERT_EQ(total, cells.size());
                 ASSERT_LE(done, total);
                 ASSERT_LT(idx, cells.size());
                 ++seen[idx];
             });
    EXPECT_EQ(calls.load(), cells.size());
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(CellRunner, StartCallbackRunsOnceBeforeEachCell)
{
    // bench_perf_smoke times its host reference kernel here, so every
    // cell must be started exactly once, before its result lands, on
    // one thread or many.
    const std::vector<CellSpec> cells = smallGrid();
    for (std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        std::vector<std::atomic<int>> started(cells.size());
        std::vector<int> startedBeforeDone(cells.size(), 0);
        runCells(
            SystemConfig{}, cells, threads,
            [&](std::size_t, std::size_t, std::size_t idx) {
                startedBeforeDone[idx] = started[idx].load();
            },
            [&](std::size_t idx) { ++started[idx]; });
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_EQ(started[i].load(), 1);
            EXPECT_EQ(startedBeforeDone[i], 1);
        }
    }
}

} // namespace abndp

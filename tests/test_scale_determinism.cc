/**
 * @file
 * Slow-tier determinism locks at benchmark scale.
 *
 * The tier1 determinism tests run tiny workloads; the data-oriented
 * hot paths (hint spans, SoA scheduler scoring, bandwidth-meter fast
 * path, cache tag arrays) only reach their steady-state regimes on
 * graphs large enough to overflow the small-size-inlined spans and the
 * meter's single-bucket fast path. These tests re-prove bit-exactness
 * at scale 16 (~65k vertices, ~1M edges — the perf-smoke grid size):
 * the same config must produce a byte-identical full stats dump run
 * twice, and identical per-cell metrics whether the grid runs inline
 * or on a cell_runner thread pool.
 *
 * Labeled `slow` (tests/CMakeLists.txt): each run takes seconds, so
 * they are excluded from the tier1 push gate and run in the full
 * suite / nightly.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/ndp_system.hh"
#include "driver/cell_runner.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** The perf-smoke cell: default geometry, scale-16 R-MAT PageRank. */
WorkloadSpec
scale16Spec(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.scale = 16;
    return spec;
}

/** Run @p spec under design @p d and return the full registry dump. */
std::string
runAndDump(Design d, const WorkloadSpec &spec)
{
    SystemConfig cfg;
    cfg = applyDesign(cfg, d);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(spec);
    sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    return oss.str();
}

} // namespace

TEST(ScaleDeterminism, Scale16RunTwiceBitExact)
{
    // Two independent simulator instances on the same scale-16 config:
    // every counter, distribution moment, and histogram bucket in the
    // full stats dump must match byte-for-byte (hostSeconds and other
    // wall-clock self-measurement are not part of the registry).
    std::string a = runAndDump(Design::O, scale16Spec("pr"));
    std::string b = runAndDump(Design::O, scale16Spec("pr"));
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(ScaleDeterminism, Scale16CellRunnerThreadCountInvariant)
{
    // The same two-cell grid through cell_runner inline (threads=1)
    // and on a pool (threads=4): each cell is seeded purely by its own
    // config, so per-cell metrics must be bit-identical regardless of
    // host thread count or completion order.
    SystemConfig base;
    std::vector<CellSpec> cells;
    for (Design d : {Design::B, Design::O}) {
        CellSpec cell;
        cell.design = d;
        cell.workload = scale16Spec("pr");
        cells.push_back(cell);
    }

    std::vector<RunMetrics> seq = runCells(base, cells, 1);
    std::vector<RunMetrics> par = runCells(base, cells, 4);
    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(designName(cells[i].design));
        EXPECT_EQ(seq[i].ticks, par[i].ticks);
        EXPECT_EQ(seq[i].tasks, par[i].tasks);
        EXPECT_EQ(seq[i].epochs, par[i].epochs);
        EXPECT_EQ(seq[i].interHops, par[i].interHops);
        EXPECT_EQ(seq[i].intraTraversals, par[i].intraTraversals);
        EXPECT_EQ(seq[i].simEvents, par[i].simEvents);
        EXPECT_EQ(seq[i].coreActiveTicks, par[i].coreActiveTicks);
        EXPECT_EQ(seq[i].campHits, par[i].campHits);
        EXPECT_EQ(seq[i].campMisses, par[i].campMisses);
        EXPECT_EQ(seq[i].stolenTasks, par[i].stolenTasks);
        EXPECT_EQ(seq[i].forwardedTasks, par[i].forwardedTasks);
        EXPECT_EQ(seq[i].dramReads, par[i].dramReads);
        EXPECT_EQ(seq[i].dramWrites, par[i].dramWrites);
        EXPECT_EQ(seq[i].dramRowMisses, par[i].dramRowMisses);
    }
}

namespace
{

/** Scale-16 config on the bank-state DDR backend (adaptive/rcb). */
SystemConfig
ddrScaleConfig(Design d)
{
    SystemConfig cfg;
    cfg = applyDesign(cfg, d);
    cfg.dram.backend = MemBackendKind::Ddr;
    cfg.dram.pagePolicy = PagePolicy::Adaptive;
    cfg.dram.addrMap = DramAddrMapKind::RowColumnBank;
    return cfg;
}

} // namespace

TEST(ScaleDeterminism, DdrScale16RunTwiceBitExact)
{
    // The DDR backend's extra state (bank machines, ACT-window meter,
    // adaptive scores) must be just as bit-deterministic as the meter
    // path at steady-state scale: two independent instances, one
    // byte-identical dump.
    auto dump = [] {
        auto cfg = ddrScaleConfig(Design::O);
        NdpSystem sys(cfg);
        auto wl = makeWorkload(scale16Spec("pr"));
        sys.run(*wl);
        EXPECT_TRUE(wl->verify());
        std::ostringstream oss;
        sys.statsRegistry().dump(oss);
        return oss.str();
    };
    std::string a = dump(), b = dump();
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.find("actStalls"), std::string::npos);
    EXPECT_EQ(a, b);
}

TEST(ScaleDeterminism, DdrCellRunnerThreadCountInvariant)
{
    // DDR cells inline vs on a 4-thread pool: every backend instance
    // is owned by one simulator instance, so per-cell metrics —
    // including the DDR-only rowHits/actStalls — must be identical
    // regardless of host thread count.
    SystemConfig base;
    base.dram.backend = MemBackendKind::Ddr;
    base.dram.pagePolicy = PagePolicy::Adaptive;
    std::vector<CellSpec> cells;
    for (Design d : {Design::B, Design::O}) {
        CellSpec cell;
        cell.design = d;
        cell.workload = scale16Spec("pr");
        cells.push_back(cell);
    }

    std::vector<RunMetrics> seq = runCells(base, cells, 1);
    std::vector<RunMetrics> par = runCells(base, cells, 4);
    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(designName(cells[i].design));
        EXPECT_EQ(seq[i].ticks, par[i].ticks);
        EXPECT_EQ(seq[i].tasks, par[i].tasks);
        EXPECT_EQ(seq[i].dramReads, par[i].dramReads);
        EXPECT_EQ(seq[i].dramWrites, par[i].dramWrites);
        EXPECT_EQ(seq[i].dramRowMisses, par[i].dramRowMisses);
        EXPECT_EQ(seq[i].dramRowHits, par[i].dramRowHits);
        EXPECT_EQ(seq[i].dramActStalls, par[i].dramActStalls);
        EXPECT_GT(seq[i].dramRowHits, 0u);
    }
}

TEST(ScaleDeterminism, HlbRunTwiceBitExact)
{
    // The hierarchical balancer + data re-homing at steady-state
    // scale: shed commands and migration plans are pure functions of
    // exchange snapshots (no Rng draws), so two independent HLB-mig
    // instances must dump byte-identical stats — including the shed
    // and migration counters the lb node adds.
    std::string a = runAndDump(Design::HlbM, scale16Spec("pr"));
    std::string b = runAndDump(Design::HlbM, scale16Spec("pr"));
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.find("tasksShedIntra"), std::string::npos);
    EXPECT_EQ(a, b);
}

TEST(ScaleDeterminism, HlbCellRunnerThreadCountInvariant)
{
    // HLB cells inline vs on a 4-thread pool: the balancer state
    // (hotness banks, indirection table, cooldown windows) is owned by
    // one simulator instance, so per-cell metrics — including the
    // lb-only shed/migration counters — must be identical regardless
    // of host thread count.
    SystemConfig base;
    std::vector<CellSpec> cells;
    for (Design d : {Design::Hlb, Design::HlbM}) {
        CellSpec cell;
        cell.design = d;
        cell.workload = scale16Spec("pr");
        cells.push_back(cell);
    }

    std::vector<RunMetrics> seq = runCells(base, cells, 1);
    std::vector<RunMetrics> par = runCells(base, cells, 4);
    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(designName(cells[i].design));
        EXPECT_EQ(seq[i].ticks, par[i].ticks);
        EXPECT_EQ(seq[i].tasks, par[i].tasks);
        EXPECT_EQ(seq[i].epochs, par[i].epochs);
        EXPECT_EQ(seq[i].interHops, par[i].interHops);
        EXPECT_EQ(seq[i].stolenTasks, par[i].stolenTasks);
        EXPECT_EQ(seq[i].tasksShedIntra, par[i].tasksShedIntra);
        EXPECT_EQ(seq[i].tasksShedInter, par[i].tasksShedInter);
        EXPECT_EQ(seq[i].blocksMigrated, par[i].blocksMigrated);
        EXPECT_EQ(seq[i].migrationInvalidations,
                  par[i].migrationInvalidations);
        EXPECT_EQ(seq[i].migrationTrafficBytes,
                  par[i].migrationTrafficBytes);
        EXPECT_EQ(seq[i].dramReads, par[i].dramReads);
        EXPECT_EQ(seq[i].dramWrites, par[i].dramWrites);
    }
}

namespace
{

/** Default-size kv store (64k keys) as the served workload. */
WorkloadSpec
kvSpec()
{
    WorkloadSpec spec;
    spec.name = "kv";
    return spec;
}

/** Default geometry plus a 20k-request Zipfian kv serving stream. */
SystemConfig
servingScaleConfig(Design d)
{
    SystemConfig cfg;
    cfg = applyDesign(cfg, d);
    cfg.serving.requests = 20000;
    cfg.serving.ratePerUs = 8.0;
    cfg.serving.zipfS = 0.99;
    cfg.serving.tenants = 2;
    return cfg;
}

} // namespace

TEST(ScaleDeterminism, ServingRunTwiceBitExact)
{
    // The serving determinism lock at stream scale: 20k open-loop
    // arrivals (default-size kv store) through two independent
    // instances must dump byte-identical stats — every latency
    // percentile, every per-tenant counter, every arrival draw.
    auto dump = [] {
        auto cfg = servingScaleConfig(Design::O);
        NdpSystem sys(cfg);
        auto wl = makeWorkload(kvSpec());
        sys.run(*wl);
        EXPECT_TRUE(wl->verify());
        std::ostringstream oss;
        sys.statsRegistry().dump(oss);
        return oss.str();
    };
    std::string a = dump(), b = dump();
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.find("serving"), std::string::npos);
    EXPECT_EQ(a, b);
}

TEST(ScaleDeterminism, ServingCellRunnerThreadCountInvariant)
{
    // Serving cells through cell_runner inline vs on a 4-thread pool:
    // the arrival stream is seeded purely by each cell's config, so
    // per-cell serving metrics (counts AND exact percentiles) must be
    // bit-identical regardless of host thread count.
    SystemConfig base;
    base.serving.requests = 8000;
    base.serving.ratePerUs = 8.0;
    std::vector<CellSpec> cells;
    for (Design d : {Design::B, Design::Sl, Design::O}) {
        CellSpec cell;
        cell.design = d;
        cell.workload = kvSpec();
        cells.push_back(cell);
    }

    std::vector<RunMetrics> seq = runCells(base, cells, 1);
    std::vector<RunMetrics> par = runCells(base, cells, 4);
    ASSERT_EQ(seq.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(designName(cells[i].design));
        EXPECT_EQ(seq[i].ticks, par[i].ticks);
        EXPECT_EQ(seq[i].tasks, par[i].tasks);
        EXPECT_EQ(seq[i].servingInjected, par[i].servingInjected);
        EXPECT_EQ(seq[i].servingRejected, par[i].servingRejected);
        EXPECT_EQ(seq[i].servingCompletedDirect,
                  par[i].servingCompletedDirect);
        EXPECT_EQ(seq[i].servingCompletedRecovered,
                  par[i].servingCompletedRecovered);
        EXPECT_EQ(seq[i].servingSloMisses, par[i].servingSloMisses);
        EXPECT_EQ(seq[i].servingWindows, par[i].servingWindows);
        EXPECT_EQ(seq[i].servingP50Ns, par[i].servingP50Ns);
        EXPECT_EQ(seq[i].servingP95Ns, par[i].servingP95Ns);
        EXPECT_EQ(seq[i].servingP99Ns, par[i].servingP99Ns);
        EXPECT_EQ(seq[i].servingP999Ns, par[i].servingP999Ns);
        EXPECT_EQ(seq[i].servingMeanNs, par[i].servingMeanNs);
        EXPECT_EQ(seq[i].servingGoodputQps, par[i].servingGoodputQps);
        EXPECT_EQ(seq[i].servingSloMissRate, par[i].servingSloMissRate);
    }
}

} // namespace abndp

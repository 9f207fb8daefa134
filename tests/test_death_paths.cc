/**
 * @file
 * Death-test coverage of the simulator's fatal()/panic() paths that a
 * return value cannot show: validate() and NdpSystem's constructor
 * exiting on a broken config rule (the rules themselves are one table
 * in test_config_validation.cc), the name parsers, a zero-page mapping
 * the kernel refuses, a meter reservation below its retirement floor,
 * inputs too large for the host, the serving driver, and the
 * watchdog/deadlock diagnostic dump. The event queue's own death paths
 * (schedule-into-the-past panic; its capacity limit is a compile-time
 * callbackFits rejection) live in test_event_queue.cc.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/zero_pages.hh"
#include "core/ndp_system.hh"
#include "driver/cell_runner.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

// ASan and TSan map shadow memory that no address-space limit leaves
// room for.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ABNDP_TEST_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ABNDP_TEST_SHADOW_MEMORY 1
#endif
#endif

namespace abndp
{

namespace
{

/** Valid baseline without the Traveller Cache. */
SystemConfig
plainConfig()
{
    return applyDesign(SystemConfig{}, Design::B);
}

/** Valid baseline with a serving stream enabled. */
SystemConfig
servingConfig()
{
    auto cfg = plainConfig();
    cfg.serving.requests = 100;
    return cfg;
}

} // namespace

// ---- validate() and NdpSystem: the fatal() wrapper --------------------

TEST(ConfigValidateDeath, ValidateExitsWithTheFirstBrokenRule)
{
    auto cfg = plainConfig();
    cfg.meshX = 0;          // the first rule
    cfg.coreFreqGHz = 0.0;  // a later rule
    ASSERT_EQ(cfg.validationError(), "mesh dimensions must be nonzero");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "^fatal: mesh dimensions must be nonzero\n$");
}

TEST(ConfigValidateDeath, NdpSystemRefusesABrokenConfig)
{
    auto cfg = plainConfig();
    cfg.prefetchBufBytes = 0;
    EXPECT_EXIT(NdpSystem{cfg}, ::testing::ExitedWithCode(1),
                "fatal: prefetchBufBytes");
}

// ---- name parsers -------------------------------------------------------

TEST(ConfigValidateDeath, RejectsUnknownBackendNames)
{
    EXPECT_DEATH(fromName<MemBackendKind>("hbm3"), "unknown memory backend");
    EXPECT_DEATH(fromName<PagePolicy>("lazy"), "unknown page policy");
    EXPECT_DEATH(fromName<DramAddrMapKind>("rbx"), "unknown dram address map");
}

TEST(ConfigValidateDeath, RejectsUnknownLbTierNames)
{
    EXPECT_DEATH(fromName<LbTierKind>("bogus"), "unknown lb tier");
}

TEST(ConfigValidateDeath, UnknownNamesListTheirTable)
{
    EXPECT_DEATH(designFromName("X"), "unknown design 'X' \\(valid: H, B, "
                 "Sm, Sl, Sh, C, O, HLB, HLB-mig\\)");
    EXPECT_DEATH(fromName<ReplPolicy>("mru"), "unknown replacement policy "
                 "'mru' \\(valid: lru, random, fifo\\)");
    EXPECT_DEATH(fromName<IntraTopology>("rign"), "unknown intra-stack "
                 "topology 'rign' \\(valid: crossbar, ring\\)");
    EXPECT_DEATH(fromName<RateProfile>("spiky"), "unknown rate profile "
                 "'spiky' \\(valid: constant, bursty, diurnal\\)");
    EXPECT_DEATH(fromName<LbTierKind>("bogus"),
                 "\\(valid: none, stealing, average, reserve\\)");
}

TEST(ConfigValidateDeath, UnknownDesignPanics)
{
    EXPECT_DEATH(designName(static_cast<Design>(99)), "unknown design");
}

// ---- ZeroPages: the Traveller arrays' storage -------------------------

TEST(ZeroPagesDeath, RefusedMappingIsFatal)
{
    // 2^63 bytes: more than any address space the kernel hands out.
    EXPECT_EXIT(ZeroPages<std::uint64_t>(std::size_t{1} << 60),
                ::testing::ExitedWithCode(1),
                "^fatal: cannot map 9223372036854775808 bytes of zero "
                "pages: ");
}

// ---- BandwidthMeter: the time-fence contract -------------------------

TEST(BandwidthMeterDeath, ReservationBelowTheRetirementFloorPanics)
{
    BandwidthMeter m;
    const Tick page = BandwidthMeter::pageBuckets * m.bucketWidth();
    m.reserve(page / 2, 100);
    m.reserve(3 * page, 100);
    // A fence inside the third page retires the first; its bucket is
    // the floor, 640 buckets of 256 ns.
    const Tick fence = 2 * page + page / 2 + 7;
    m.discardBefore(fence);
    EXPECT_EQ(m.reserve(fence, 100), fence);
    // Below the fence but inside the live page that straddles it: the
    // page still holds its reservations, so the grant is exact.
    EXPECT_EQ(m.reserve(2 * page, 100), 2 * page);
    EXPECT_DEATH(m.reserve(page / 2, 100),
                 "below the retirement floor at tick 163840000 ");
}

// ---- inputs too large for the host -------------------------------------

namespace
{

/**
 * Lower RLIMIT_AS to the address space this process maps now plus
 * @p extraMb, so the next allocation past it fails. Call it inside an
 * EXPECT_EXIT statement only: the limit then binds the death-test
 * child, not the test process. Aborts (failing the row) rather than
 * let the input run without a limit.
 */
void
limitAddressSpace(std::size_t extraMb)
{
    std::ifstream status("/proc/self/status");
    std::string key;
    std::size_t kb = 0;
    while (status >> key && key != "VmSize:")
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    status >> kb;
    const rlim_t bytes = (kb << 10) + (extraMb << 20);
    const rlimit lim{bytes, bytes};
    if (kb == 0 || setrlimit(RLIMIT_AS, &lim) != 0)
        std::abort();
}

/** The R-MAT input abndp_sim --scale=13 --edge-factor=100000 asks for:
 *  1.6e9 arcs fit in 32 bits, but not in 1 GB. */
WorkloadSpec
hugeRmatSpec()
{
    WorkloadSpec spec;
    spec.scale = 13;
    spec.edgeFactor = 100000;
    return spec;
}

constexpr const char *hugeRmatMessage =
    "^fatal: the R-MAT input at scale 13, edge factor 100000 does not "
    "fit in host memory \\(allocation failed\\)\n$";

} // namespace

#ifdef ABNDP_TEST_SHADOW_MEMORY
#define ABNDP_SKIP_UNDER_SANITIZER() \
    GTEST_SKIP() << "the sanitizer needs unlimited address space"
#else
#define ABNDP_SKIP_UNDER_SANITIZER() (void)0
#endif

TEST(OutOfMemoryDeath, RmatInputNamesScaleAndEdgeFactor)
{
    // The allocation fails in makeWorkload(), drawing the edges.
    ABNDP_SKIP_UNDER_SANITIZER();
    const WorkloadSpec spec = hugeRmatSpec();
    EXPECT_EXIT(
        {
            limitAddressSpace(1024);
            fatalIfOutOfMemory(spec.inputName(), [&] {
                return runExperiment(plainConfig(), Design::B, spec);
            });
        },
        ::testing::ExitedWithCode(1), hugeRmatMessage);
}

TEST(OutOfMemoryDeath, EdgeListFileNamesTheFile)
{
    // One edge to vertex 2,000,000: the edge list and the system fit
    // in the limit, the run's per-vertex workload setup does not.
    ABNDP_SKIP_UNDER_SANITIZER();
    const std::string path =
        ::testing::TempDir() + "abndp_oom_edge_list.txt";
    std::ofstream(path) << "0 2000000\n";
    WorkloadSpec spec;
    spec.graphFile = path;
    EXPECT_EXIT(
        {
            limitAddressSpace(120);
            fatalIfOutOfMemory(spec.inputName(), [&] {
                auto wl = makeWorkload(spec);
                NdpSystem sys(plainConfig());
                return sys.run(*wl);
            });
        },
        ::testing::ExitedWithCode(1),
        "^fatal: graph file '.*abndp_oom_edge_list.txt' does not fit in "
        "host memory \\(allocation failed\\)\n$");
}

TEST(OutOfMemoryDeath, SweepCellOnAWorkerThread)
{
    // sweep's path: the failure on a worker thread reaches the caller.
    ABNDP_SKIP_UNDER_SANITIZER();
    std::vector<CellSpec> cells(2);
    cells[0].workload = cells[1].workload = hugeRmatSpec();
    cells[1].design = Design::O;
    EXPECT_EXIT(
        {
            limitAddressSpace(1024);
            fatalIfOutOfMemory(cells[0].workload.inputName(), [&] {
                return runCells(SystemConfig{}, cells, 2);
            });
        },
        ::testing::ExitedWithCode(1), hugeRmatMessage);
}

// ---- serving driver fatal paths ---------------------------------------

TEST(ServingDeath, HostDesignCannotServe)
{
    auto cfg = servingConfig();
    EXPECT_DEATH(runExperiment(cfg, Design::H,
                               WorkloadSpec::tiny("kv"), {}),
                 "design H cannot run serving mode");
}

TEST(ServingDeath, NonQueryServiceWorkloadCannotServe)
{
    auto cfg = servingConfig();
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "cannot be served");
}

TEST(ServingDeath, UnsustainableRateTripsWatchdog)
{
    // Overdriving a tiny machine with an unbounded admission window:
    // the watchdog converts the silent queue explosion into a fatal
    // diagnostic pointing at the arrival rate.
    auto cfg = servingConfig();
    cfg.serving.requests = 200000;
    cfg.serving.ratePerUs = 10000.0;
    cfg.serving.maxOutstanding = 0;
    cfg.fault.watchdog.maxEpochEvents = 200000;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
    EXPECT_DEATH(sys.run(*wl), "arrival rate");
}

// ---- watchdog / deadlock diagnostic dump -----------------------------

TEST(WatchdogDeath, BudgetOverrunDumpsDiagnostics)
{
    auto cfg = plainConfig();
    cfg.fault.watchdog.maxEpochEvents = 3; // far below one real epoch
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "exceeded its budget");
}

TEST(WatchdogDeath, DumpListsPerUnitQueueDepths)
{
    auto cfg = plainConfig();
    cfg.fault.watchdog.maxEpochTicks = 10;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "per-unit queue depths");
}

} // namespace abndp

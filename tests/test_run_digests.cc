/**
 * @file
 * Digest table for the runs no golden dump covers: the non-graph batch
 * workloads (kv, knn, astar, kmeans) on B, O and HLB-mig, the served
 * kv, knn, sssp and astar streams on O, and design H's host model.
 *
 * Each NDP row holds the FNV-1a hash of the full stats-registry dump of
 * a tiny run on the golden geometry with the invariant checkers armed;
 * each H row holds the run's ticks and LLC hit and miss counts. A
 * change that keeps the simulated machine must pass the table
 * unmodified. After an intentional behaviour change, the failure
 * output prints every row as it now reads, ready to paste back.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/ndp_system.hh"
#include "host/host_system.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** FNV-1a (64-bit) over the bytes of @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One checker-armed NDP run and the digest of its registry dump. */
struct DigestRow
{
    const char *workload;
    Design design;
    bool served;
    std::uint64_t digest;
};

/** One design-H run: the host model's timing and LLC counters. */
struct HostRow
{
    const char *workload;
    Tick ticks;
    std::uint64_t l1Hits;
    std::uint64_t l1Misses;
};

constexpr DigestRow digestRows[] = {
    {"kv", Design::B, false, 0x31e01e351092475full},
    {"kv", Design::O, false, 0x07f474dc65cc02edull},
    {"kv", Design::HlbM, false, 0x0b34b748fba8edfbull},
    {"knn", Design::B, false, 0x0343574bd1d1944bull},
    {"knn", Design::O, false, 0xe46f741df25e1db6ull},
    {"knn", Design::HlbM, false, 0x66ac408035637d87ull},
    {"astar", Design::B, false, 0x201ae0be9236c124ull},
    {"astar", Design::O, false, 0xc75d0c5bbd97ccbcull},
    {"astar", Design::HlbM, false, 0x457061b62cc423e5ull},
    {"kmeans", Design::B, false, 0xf657348f1dfc944cull},
    {"kmeans", Design::O, false, 0xe5ef86135fd311bdull},
    {"kmeans", Design::HlbM, false, 0x30aaa8118be6ed3bull},
    {"kv", Design::O, true, 0x243f33b11a7d571dull},
    {"knn", Design::O, true, 0xb672504348183ed8ull},
    {"sssp", Design::O, true, 0x124745731bf295b1ull},
    {"astar", Design::O, true, 0x15055bf6e6df127aull},
};

constexpr HostRow hostRows[] = {
    {"kv", 1311446, 831, 193},
    {"knn", 7632628, 4210, 519},
    {"astar", 56292031, 28140, 2785},
    {"kmeans", 52392280, 0, 6144},
};

/**
 * The golden geometry (2x2 mesh, 2 units per stack, 2 cores per unit)
 * under @p d with every invariant checker armed; a served row adds a
 * short Zipf-skewed open-loop stream.
 */
SystemConfig
rowConfig(Design d, bool served)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    cfg.checkInvariants = true;
    if (served) {
        cfg.serving.requests = 300;
        cfg.serving.ratePerUs = 4.0;
        cfg.serving.zipfS = 0.99;
    }
    return applyDesign(cfg, d);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

TEST(RunDigests, NonGraphBatchServedAndHostRunsMatchTheTable)
{
    std::ostringstream table;
    bool same = true;
    for (const DigestRow &row : digestRows) {
        SCOPED_TRACE(std::string(row.workload) + " on "
                     + designName(row.design)
                     + (row.served ? " (served)" : ""));
        NdpSystem sys(rowConfig(row.design, row.served));
        auto wl = makeWorkload(WorkloadSpec::tiny(row.workload));
        sys.run(*wl);
        EXPECT_TRUE(wl->verify());
        std::ostringstream dump;
        sys.statsRegistry().dump(dump);
        const std::uint64_t digest = fnv1a(dump.str());
        EXPECT_EQ(hex(digest), hex(row.digest));
        same = same && digest == row.digest;
        // Every table design but HLB-mig is named by its enumerator.
        table << "    {\"" << row.workload << "\", Design::"
              << (row.design == Design::HlbM ? "HlbM"
                                             : designName(row.design))
              << ", "
              << (row.served ? "true" : "false") << ", " << hex(digest)
              << "},\n";
    }
    for (const HostRow &row : hostRows) {
        SCOPED_TRACE(std::string(row.workload) + " on H");
        HostSystem host(SystemConfig{});
        auto wl = makeWorkload(WorkloadSpec::tiny(row.workload));
        const RunMetrics m = host.run(*wl);
        EXPECT_TRUE(wl->verify());
        EXPECT_EQ(m.ticks, row.ticks);
        EXPECT_EQ(m.l1Hits, row.l1Hits);
        EXPECT_EQ(m.l1Misses, row.l1Misses);
        same = same && m.ticks == row.ticks && m.l1Hits == row.l1Hits
            && m.l1Misses == row.l1Misses;
        table << "    {\"" << row.workload << "\", " << m.ticks << ", "
              << m.l1Hits << ", " << m.l1Misses << "},\n";
    }
    EXPECT_TRUE(same) << "the rows now read:\n" << table.str();
}

} // namespace abndp

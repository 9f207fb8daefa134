/** @file Tests for the end-to-end Traveller access flow (Section 4.4). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "core/mem_system.hh"

namespace abndp
{

namespace
{

struct MemFixture
{
    explicit MemFixture(CacheStyle style, double bypass = 0.0,
                        bool migration = false)
    {
        cfg.traveller.style = style;
        cfg.traveller.bypassProb = bypass;
        cfg.lb.migration.enabled = migration;
        topo = std::make_unique<Topology>(cfg);
        amap = std::make_unique<AddressMap>(cfg);
        energy = std::make_unique<EnergyAccount>(cfg);
        mem = std::make_unique<MemSystem>(cfg, *topo, *amap, *energy);
    }

    SystemConfig cfg;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<AddressMap> amap;
    std::unique_ptr<EnergyAccount> energy;
    std::unique_ptr<MemSystem> mem;
};

} // namespace

TEST(MemSystem, LocalReadIsCheapestWithoutCaching)
{
    MemFixture f(CacheStyle::None);
    Addr local = f.amap->unitBase(0) + 0x40;
    Addr same_stack = f.amap->unitBase(5) + 0x40;
    Addr far = f.amap->unitBase(127) + 0x40;
    Tick t_local = f.mem->readBlock(0, local, 0);
    Tick t_intra = f.mem->readBlock(0, same_stack, 1000000);
    Tick t_far = f.mem->readBlock(0, far, 2000000);
    EXPECT_LT(t_local, t_intra);
    EXPECT_LT(t_intra, t_far);
}

TEST(MemSystem, NoCampActivityWithoutCaching)
{
    MemFixture f(CacheStyle::None);
    f.mem->readBlock(0, f.amap->unitBase(90) + 0x40, 0);
    EXPECT_EQ(f.mem->campHits() + f.mem->campMisses(), 0u);
    EXPECT_FALSE(f.mem->cachingEnabled());
}

TEST(MemSystem, SecondRemoteReadHitsTheCamp)
{
    MemFixture f(CacheStyle::TravellerSramTags);
    Addr addr = f.amap->unitBase(90) + 0x40;
    // Find a requester whose nearest candidate is a camp, not the home.
    UnitId requester = invalidUnit;
    for (UnitId u = 0; u < 128; ++u) {
        if (f.mem->campMapping().nearestCandidate(addr, u) != 90u) {
            requester = u;
            break;
        }
    }
    ASSERT_NE(requester, invalidUnit);

    Tick cold = f.mem->readBlock(requester, addr, 0);
    EXPECT_EQ(f.mem->campMisses(), 1u);
    EXPECT_EQ(f.mem->cacheInsertions(), 1u); // bypassProb = 0

    Tick warm = f.mem->readBlock(requester, addr, 10000000);
    EXPECT_EQ(f.mem->campHits(), 1u);
    EXPECT_LT(warm, cold);
}

TEST(MemSystem, BulkInvalidateDropsCampContents)
{
    MemFixture f(CacheStyle::TravellerSramTags);
    Addr addr = f.amap->unitBase(90) + 0x40;
    UnitId requester = 0;
    while (f.mem->campMapping().nearestCandidate(addr, requester) == 90u)
        ++requester;
    f.mem->readBlock(requester, addr, 0);
    f.mem->bulkInvalidate();
    f.mem->readBlock(requester, addr, 10000000);
    EXPECT_EQ(f.mem->campMisses(), 2u);
    EXPECT_EQ(f.mem->campHits(), 0u);
}

TEST(MemSystem, WritesBypassCacheAndGoHome)
{
    MemFixture f(CacheStyle::TravellerSramTags);
    Addr addr = f.amap->unitBase(90) + 0x40;
    f.mem->writeBlock(3, addr, 0);
    EXPECT_EQ(f.mem->dram(90).writes(), 1u);
    EXPECT_EQ(f.mem->campHits() + f.mem->campMisses(), 0u);
}

TEST(MemSystem, DramTagStyleCostsExtraDramAccesses)
{
    MemFixture sram(CacheStyle::TravellerSramTags);
    MemFixture intag(CacheStyle::DramTags);
    Addr addr = sram.amap->unitBase(90) + 0x40;
    UnitId req = 0;
    while (sram.mem->campMapping().nearestCandidate(addr, req) == 90u)
        ++req;
    UnitId camp = sram.mem->campMapping().nearestCandidate(addr, req);

    sram.mem->readBlock(req, addr, 0);
    intag.mem->readBlock(req, addr, 0);
    // The in-DRAM tag check adds DRAM accesses at the camp.
    EXPECT_GT(intag.mem->dram(camp).reads()
                  + intag.mem->dram(camp).writes(),
              sram.mem->dram(camp).reads()
                  + sram.mem->dram(camp).writes());
}

TEST(MemSystem, SramDataStyleHitAvoidsDram)
{
    MemFixture f(CacheStyle::SramData);
    Addr addr = f.amap->unitBase(90) + 0x40;
    UnitId req = 0;
    while (f.mem->campMapping().nearestCandidate(addr, req) == 90u)
        ++req;
    UnitId camp = f.mem->campMapping().nearestCandidate(addr, req);

    f.mem->readBlock(req, addr, 0);
    auto dram_after_miss = f.mem->dram(camp).reads();
    f.mem->readBlock(req, addr, 10000000);
    EXPECT_EQ(f.mem->campHits(), 1u);
    // The hit is served from SRAM: no new DRAM read at the camp.
    EXPECT_EQ(f.mem->dram(camp).reads(), dram_after_miss);
}

TEST(MemSystem, BypassProbabilitySkipsInsertions)
{
    MemFixture f(CacheStyle::TravellerSramTags, 1.0); // always bypass
    Addr addr = f.amap->unitBase(90) + 0x40;
    UnitId req = 0;
    while (f.mem->campMapping().nearestCandidate(addr, req) == 90u)
        ++req;
    f.mem->readBlock(req, addr, 0);
    f.mem->readBlock(req, addr, 10000000);
    EXPECT_EQ(f.mem->cacheInsertions(), 0u);
    EXPECT_EQ(f.mem->campMisses(), 2u);
}

TEST(MemSystem, MigrationDropsEveryStaleCampCopy)
{
    // Fill the block's camps under home 90, re-home it into a group
    // whose camp holds a copy (that camp is never probed again while
    // the new home serves the group), refill under the new home, and
    // move it back: after each move no Traveller anywhere holds it.
    MemFixture f(CacheStyle::TravellerSramTags, 0.0, true);
    const Addr block = f.amap->unitBase(90) + 0x40;
    const UnitId n = f.cfg.numUnits();
    auto readFromEveryUnit = [&](Tick t) {
        for (UnitId u = 0; u < n; ++u)
            f.mem->readBlock(u, block, t);
    };
    auto copies = [&] {
        std::vector<UnitId> at;
        for (UnitId u = 0; u < n; ++u)
            if (f.mem->traveller(u).contains(block))
                at.push_back(u);
        return at;
    };

    readFromEveryUnit(0);
    const std::vector<UnitId> first = copies();
    ASSERT_GE(first.size(), 2u);
    const UnitId stale = first[0];
    const GroupId g = f.topo->groupOf(stale);
    UnitId to = f.topo->unitInGroup(g, 0);
    if (to == stale)
        to = f.topo->unitInGroup(g, 1);

    f.mem->migrateBlock(block, to, 10000000);
    EXPECT_EQ(f.mem->campMapping().homeOf(block), to);
    EXPECT_TRUE(copies().empty());
    EXPECT_EQ(f.mem->migrationInvalidations(), 1u);

    readFromEveryUnit(20000000);
    ASSERT_FALSE(copies().empty());
    f.mem->migrateBlock(block, 90, 30000000);
    EXPECT_EQ(f.mem->campMapping().homeOf(block), 90u);
    EXPECT_TRUE(copies().empty());
    EXPECT_EQ(f.mem->migrationInvalidations(), 2u);
    EXPECT_EQ(f.mem->blocksMigrated(), 2u);
}

TEST(MemSystem, ReadLatencySampled)
{
    MemFixture f(CacheStyle::None);
    f.mem->readBlock(0, f.amap->unitBase(64) + 0x40, 0);
    EXPECT_EQ(f.mem->readLatencyNs().samples(), 1u);
    EXPECT_GT(f.mem->readLatencyNs().mean(), 0.0);
}

// The per-block read histogram is a debug aid, opt-in via the
// ABNDP_READ_HIST environment variable (checked once at construction)
// so benchmark runs never pay for the hash map on the read path.
TEST(MemSystem, ReadHistogramOffByDefault)
{
    MemFixture f(CacheStyle::None);
    f.mem->readBlock(0, f.amap->unitBase(64) + 0x40, 0);
    f.mem->readBlock(0, f.amap->unitBase(64) + 0x80, 0);
    EXPECT_TRUE(f.mem->readHist().empty());
}

TEST(MemSystem, ReadHistogramCountsWhenEnabled)
{
    ::setenv("ABNDP_READ_HIST", "1", 1);
    MemFixture f(CacheStyle::None);
    ::unsetenv("ABNDP_READ_HIST");

    Addr a = f.amap->unitBase(64) + 0x40;
    Addr b = f.amap->unitBase(64) + 0x80;
    f.mem->readBlock(0, a, 0);
    f.mem->readBlock(0, a, 1000000);
    f.mem->readBlock(0, b, 2000000);

    const auto &hist = f.mem->readHist();
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_EQ(hist.at(blockAlign(a)), 2u);
    EXPECT_EQ(hist.at(blockAlign(b)), 1u);
}

} // namespace abndp

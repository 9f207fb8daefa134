/** @file Tests for the Traveller Cache camp-location mapping. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/camp_mapping.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"

namespace abndp
{

namespace
{

struct CampFixture
{
    explicit CampFixture(bool skewed = true, std::uint32_t camps = 3)
    {
        cfg.traveller.campCount = camps;
        cfg.traveller.skewedMapping = skewed;
        cfg.traveller.style = CacheStyle::TravellerSramTags;
        topo = std::make_unique<Topology>(cfg);
        amap = std::make_unique<AddressMap>(cfg);
        camps_ = std::make_unique<CampMapping>(cfg, *topo, *amap);
    }

    SystemConfig cfg;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<AddressMap> amap;
    std::unique_ptr<CampMapping> camps_;
};

} // namespace

TEST(CampMapping, OneCandidatePerGroup)
{
    CampFixture f;
    CandidateList cl;
    f.camps_->candidates(0x12345678, cl);
    EXPECT_EQ(cl.n, 4u);
    std::set<GroupId> groups;
    for (std::uint32_t i = 0; i < cl.n; ++i)
        groups.insert(f.topo->groupOf(cl.loc[i]));
    EXPECT_EQ(groups.size(), 4u);
}

TEST(CampMapping, HomeGroupUsesTheHomeItself)
{
    CampFixture f;
    Addr addr = f.amap->unitBase(42) + 0x1000;
    UnitId home = f.camps_->homeOf(addr);
    EXPECT_EQ(home, 42u);
    GroupId hg = f.topo->groupOf(home);
    EXPECT_EQ(f.camps_->locationInGroup(addr, hg), home);
}

TEST(CampMapping, DeterministicPerAddress)
{
    CampFixture a, b;
    for (Addr addr = 0; addr < 100 * 64; addr += 64)
        for (GroupId g = 0; g < 4; ++g)
            EXPECT_EQ(a.camps_->locationInGroup(addr, g),
                      b.camps_->locationInGroup(addr, g));
}

TEST(CampMapping, BlocksInSameLineShareCamps)
{
    CampFixture f;
    for (GroupId g = 0; g < 4; ++g)
        EXPECT_EQ(f.camps_->locationInGroup(0x1000, g),
                  f.camps_->locationInGroup(0x1010, g));
}

TEST(CampMapping, SkewedGroupsMapDifferently)
{
    CampFixture f(true);
    // Over many blocks, the camp indices within different groups must
    // differ for most blocks (that is the point of skewing).
    int same = 0, total = 0;
    for (Addr a = 0; a < 2000 * 64; a += 64) {
        UnitId home = f.camps_->homeOf(a);
        GroupId hg = f.topo->groupOf(home);
        GroupId g1 = (hg + 1) % 4, g2 = (hg + 2) % 4;
        UnitId c1 = f.camps_->locationInGroup(a, g1);
        UnitId c2 = f.camps_->locationInGroup(a, g2);
        // Compare the position inside the group.
        std::uint32_t i1 = 0, i2 = 0;
        for (std::uint32_t i = 0; i < f.topo->unitsPerGroup(); ++i) {
            if (f.topo->unitInGroup(g1, i) == c1)
                i1 = i;
            if (f.topo->unitInGroup(g2, i) == c2)
                i2 = i;
        }
        same += i1 == i2 ? 1 : 0;
        ++total;
    }
    // Random agreement would be ~1/32; allow some slack.
    EXPECT_LT(static_cast<double>(same) / total, 0.1);
}

TEST(CampMapping, IdenticalMappingUsesSameIndexInEveryGroup)
{
    CampFixture f(false);
    for (Addr a = 0; a < 200 * 64; a += 64) {
        UnitId home = f.camps_->homeOf(a);
        GroupId hg = f.topo->groupOf(home);
        std::set<std::uint32_t> idx;
        for (GroupId g = 0; g < 4; ++g) {
            if (g == hg)
                continue;
            UnitId c = f.camps_->locationInGroup(a, g);
            for (std::uint32_t i = 0; i < f.topo->unitsPerGroup(); ++i)
                if (f.topo->unitInGroup(g, i) == c)
                    idx.insert(i);
        }
        EXPECT_EQ(idx.size(), 1u) << "address " << a;
    }
}

TEST(CampMapping, CampsAreUniformlyDistributed)
{
    CampFixture f;
    std::map<UnitId, std::uint32_t> counts;
    const int blocks = 32000;
    for (int i = 0; i < blocks; ++i) {
        // Spread the homes uniformly so camp (and home) candidates can
        // be compared against a uniform expectation.
        Addr a = f.amap->unitBase(i % 128)
            + static_cast<Addr>(i / 128) * 64;
        CandidateList cl;
        f.camps_->candidates(a, cl);
        for (std::uint32_t c = 0; c < cl.n; ++c)
            ++counts[cl.loc[c]];
    }
    // Each unit should receive about blocks * 4 / 128 candidates.
    double expected = blocks * 4.0 / 128.0;
    for (const auto &[u, n] : counts) {
        EXPECT_GT(n, expected * 0.6);
        EXPECT_LT(n, expected * 1.6);
    }
}

TEST(CampMapping, NearestCandidateIsActuallyNearest)
{
    CampFixture f;
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Addr a = rng.below(1ull << 30) & ~63ull;
        auto from = static_cast<UnitId>(rng.below(128));
        UnitId nearest = f.camps_->nearestCandidate(a, from);
        CandidateList cl;
        f.camps_->candidates(a, cl);
        double best = f.topo->distanceCost(from, nearest);
        for (std::uint32_t c = 0; c < cl.n; ++c)
            EXPECT_LE(best, f.topo->distanceCost(from, cl.loc[c]));
    }
}

TEST(CampMapping, CampsUnderAnyHomeCoverEveryHomesCamps)
{
    // A re-homed block's stale copies sit in camps chosen under an
    // earlier home; the home-independent list must hold, group by
    // group, every camp that any home of the block would probe.
    for (bool skewed : {true, false}) {
        CampFixture f(skewed);
        HomeIndirection indir;
        f.camps_->setHomeIndirection(&indir);
        Rng rng(5);
        for (int i = 0; i < 64; ++i) {
            const Addr a = blockAlign(rng.below(f.cfg.totalMemBytes()));
            CandidateList any;
            f.camps_->campsUnderAnyHome(a, any);
            ASSERT_EQ(any.n, f.camps_->numGroups());
            for (UnitId home = 0; home < f.cfg.numUnits(); ++home) {
                indir.set(a, home, f.amap->homeOf(a));
                ASSERT_EQ(f.camps_->homeOf(a), home);
                CandidateList cl;
                f.camps_->candidates(a, cl);
                for (GroupId g = 0; g < cl.n; ++g) {
                    if (g != f.topo->groupOf(home)) {
                        ASSERT_EQ(cl.loc[g], any.loc[g])
                            << "skewed " << skewed << " home " << home;
                    }
                }
            }
            indir.clear();
        }
    }
}

TEST(CampMapping, TagBitsMatchPaperArithmetic)
{
    // Section 4.3: 64GB capacity, 32768 sets -> 15 tag bits without the
    // camp restriction; 32 units/group saves 5 bits -> 10 bits; total
    // SRAM tag storage = 128k blocks x 10 bits = 160 kB.
    CampFixture f;
    EXPECT_EQ(f.camps_->tagBitsUnrestricted(), 15u);
    EXPECT_EQ(f.camps_->tagBits(), 10u);
    EXPECT_EQ(f.camps_->tagStorageBytes(), 160u * 1024);
}

TEST(CampMapping, TagStorageConstantWhenSystemScales)
{
    // Section 4.3 scalability: growing the stack count with C fixed
    // keeps the per-unit tag size constant.
    CampFixture small;
    SystemConfig big_cfg;
    big_cfg.meshX = big_cfg.meshY = 8;
    big_cfg.traveller.style = CacheStyle::TravellerSramTags;
    Topology big_topo(big_cfg);
    AddressMap big_amap(big_cfg);
    CampMapping big(big_cfg, big_topo, big_amap);
    EXPECT_EQ(small.camps_->tagStorageBytes(), big.tagStorageBytes());
}

} // namespace abndp

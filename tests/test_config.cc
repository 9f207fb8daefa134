/** @file Tests for the Table-1 defaults and the Table-2 design matrix. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "sched/policy_registry.hh"

namespace abndp
{

TEST(Config, Table1Defaults)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numStacks(), 16u);
    EXPECT_EQ(cfg.numUnits(), 128u);
    EXPECT_EQ(cfg.numCores(), 256u);
    EXPECT_EQ(cfg.totalMemBytes(), 64ull << 30);
    EXPECT_EQ(cfg.memBytesPerUnit, 512ull << 20);
    EXPECT_EQ(cfg.l1d.sizeBytes, 64ull * 1024);
    EXPECT_EQ(cfg.l1d.assoc, 4u);
    EXPECT_EQ(cfg.l1i.sizeBytes, 32ull * 1024);
    EXPECT_EQ(cfg.prefetchBufBytes, 4ull * 1024);
    EXPECT_DOUBLE_EQ(cfg.dram.tCasNs, 17.0);
    EXPECT_DOUBLE_EQ(cfg.dram.pjPerBitRw, 5.0);
    EXPECT_DOUBLE_EQ(cfg.dram.pjActPre, 535.8);
    EXPECT_DOUBLE_EQ(cfg.net.intraHopNs, 1.5);
    EXPECT_DOUBLE_EQ(cfg.net.interHopNs, 10.0);
    EXPECT_DOUBLE_EQ(cfg.net.interGBs, 32.0);
    EXPECT_EQ(cfg.traveller.ratioDenom, 64u);
    EXPECT_EQ(cfg.traveller.assoc, 4u);
    EXPECT_EQ(cfg.traveller.campCount, 3u);
    EXPECT_DOUBLE_EQ(cfg.traveller.bypassProb, 0.4);
    EXPECT_EQ(cfg.sched.exchangeIntervalCycles, 100000u);
    EXPECT_EQ(cfg.meshDiameter(), 6u);
    EXPECT_EQ(cfg.ticksPerCycle(), 500u);
}

TEST(Config, DerivedTravellerGeometry)
{
    SystemConfig cfg;
    // 512MB / 64 / 64B / 4-way = 32768 sets (Section 4.3).
    EXPECT_EQ(cfg.travellerBytesPerUnit(), 8ull << 20);
    EXPECT_EQ(cfg.travellerSets(), 32768u);
}

TEST(Config, ApplyDesignMatrix)
{
    SystemConfig base;
    auto policyOf = [](const SystemConfig &cfg) {
        return std::string(makeConfiguredPolicy(cfg)->name());
    };

    auto h = applyDesign(base, Design::H);
    EXPECT_EQ(policyOf(h), "local");
    EXPECT_EQ(h.traveller.style, CacheStyle::None);

    auto b = applyDesign(base, Design::B);
    EXPECT_EQ(policyOf(b), "local");
    EXPECT_EQ(b.traveller.style, CacheStyle::None);
    EXPECT_FALSE(b.sched.workStealing);

    auto sm = applyDesign(base, Design::Sm);
    EXPECT_EQ(policyOf(sm), "memmatch");
    EXPECT_FALSE(sm.sched.workStealing);

    // Sl wraps memmatch in the work-stealing decorator.
    auto sl = applyDesign(base, Design::Sl);
    EXPECT_TRUE(sl.sched.workStealing);
    auto slPolicy = makeConfiguredPolicy(sl);
    EXPECT_TRUE(slPolicy->stealing());
    ASSERT_NE(slPolicy->inner(), nullptr);
    EXPECT_STREQ(slPolicy->inner()->name(), "memmatch");

    auto sh = applyDesign(base, Design::Sh);
    EXPECT_EQ(policyOf(sh), "hybrid");
    EXPECT_EQ(sh.traveller.style, CacheStyle::None);

    auto c = applyDesign(base, Design::C);
    EXPECT_EQ(policyOf(c), "memmatch");
    EXPECT_EQ(c.traveller.style, CacheStyle::TravellerSramTags);

    auto o = applyDesign(base, Design::O);
    EXPECT_EQ(policyOf(o), "hybrid");
    EXPECT_EQ(o.traveller.style, CacheStyle::TravellerSramTags);
    EXPECT_FALSE(o.lb.enabled);
    EXPECT_FALSE(o.lb.migration.enabled);

    auto hlb = applyDesign(base, Design::Hlb);
    EXPECT_EQ(policyOf(hlb), "hybrid");
    EXPECT_EQ(hlb.traveller.style, CacheStyle::TravellerSramTags);
    EXPECT_TRUE(hlb.lb.enabled);
    EXPECT_FALSE(hlb.lb.migration.enabled);

    auto hlbm = applyDesign(base, Design::HlbM);
    EXPECT_EQ(policyOf(hlbm), "hybrid");
    EXPECT_EQ(hlbm.traveller.style, CacheStyle::TravellerSramTags);
    EXPECT_TRUE(hlbm.lb.enabled);
    EXPECT_TRUE(hlbm.lb.migration.enabled);
}

TEST(Config, AutoAlphaTracksDiameter)
{
    SystemConfig base;
    base.meshX = base.meshY = 8;
    auto o = applyDesign(base, Design::O);
    // d = 14 for an 8x8 mesh; alpha = d / 2.
    EXPECT_DOUBLE_EQ(o.sched.hybridAlpha, 7.0);
}

TEST(Config, DesignNames)
{
    EXPECT_STREQ(designName(Design::H), "H");
    EXPECT_STREQ(designName(Design::B), "B");
    EXPECT_STREQ(designName(Design::Sm), "Sm");
    EXPECT_STREQ(designName(Design::Sl), "Sl");
    EXPECT_STREQ(designName(Design::Sh), "Sh");
    EXPECT_STREQ(designName(Design::C), "C");
    EXPECT_STREQ(designName(Design::O), "O");
    EXPECT_STREQ(designName(Design::Hlb), "HLB");
    EXPECT_STREQ(designName(Design::HlbM), "HLB-mig");
    for (Design d : allDesigns())
        EXPECT_EQ(designFromName(designName(d)), d);
    EXPECT_EQ(allDesigns().size(), ndpDesigns().size() + 1);
    EXPECT_EQ(allDesigns().front(), Design::H);
}

TEST(Config, NameTablesRoundTrip)
{
    for (auto v : {ReplPolicy::Lru, ReplPolicy::Random, ReplPolicy::Fifo})
        EXPECT_EQ(fromName<ReplPolicy>(nameOf(v)), v);
    for (auto v : {MemBackendKind::Meter, MemBackendKind::Ddr})
        EXPECT_EQ(fromName<MemBackendKind>(nameOf(v)), v);
    for (auto v : {PagePolicy::Open, PagePolicy::Close,
                   PagePolicy::Adaptive})
        EXPECT_EQ(fromName<PagePolicy>(nameOf(v)), v);
    for (auto v : {DramAddrMapKind::RowBankColumn,
                   DramAddrMapKind::RowColumnBank,
                   DramAddrMapKind::BankRowColumn})
        EXPECT_EQ(fromName<DramAddrMapKind>(nameOf(v)), v);
    for (auto v : {IntraTopology::Crossbar, IntraTopology::Ring})
        EXPECT_EQ(fromName<IntraTopology>(nameOf(v)), v);
    for (auto v : {RateProfile::Constant, RateProfile::Bursty,
                   RateProfile::Diurnal})
        EXPECT_EQ(fromName<RateProfile>(nameOf(v)), v);
    for (auto v : {LbTierKind::None, LbTierKind::Stealing,
                   LbTierKind::Average, LbTierKind::Reserve})
        EXPECT_EQ(fromName<LbTierKind>(nameOf(v)), v);
    // Repro files and --mem-backend spell these; they must not move.
    EXPECT_STREQ(nameOf(MemBackendKind::Ddr), "ddr");
    EXPECT_STREQ(nameOf(DramAddrMapKind::RowColumnBank), "rcb");
    EXPECT_STREQ(nameOf(IntraTopology::Crossbar), "crossbar");
    EXPECT_STREQ(nameOf(RateProfile::Bursty), "bursty");
    EXPECT_STREQ(nameOf(ReplPolicy::Lru), "lru");
    EXPECT_STREQ(nameOf(LbTierKind::Stealing), "stealing");
    EXPECT_STREQ(nameOf(PagePolicy::Adaptive), "adaptive");
}

TEST(Config, PrintMentionsKeyParameters)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::O);
    std::ostringstream oss;
    cfg.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("4x4 stacks"), std::string::npos);
    EXPECT_NE(out.find("512MB per unit"), std::string::npos);
    EXPECT_NE(out.find("C=3 camp loc."), std::string::npos);
    EXPECT_NE(out.find("100000-cycle"), std::string::npos);
}

TEST(Config, PrintNamesPoliciesAndTopology)
{
    // The L1 lines name each cache's own policy, and the intra-stack
    // line names the topology, so a ring run's config reads as one.
    SystemConfig cfg;
    cfg.l1d.repl = ReplPolicy::Fifo;
    cfg.net.intraTopology = IntraTopology::Ring;
    std::ostringstream oss;
    cfg.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("L1-D cache      : 64kB, 4-way, 64B cachelines, "
                       "fifo\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("64B cachelines, lru\n"), std::string::npos) << out;
    EXPECT_NE(out.find("Intra-stack net : ring, "), std::string::npos)
        << out;
    EXPECT_EQ(out.find("LRU"), std::string::npos) << out;
}

} // namespace abndp

/** @file Tests for the per-unit Traveller Cache storage. */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cache/traveller_cache.hh"

namespace abndp
{

namespace
{

SystemConfig
smallCfg(double bypass = 0.0)
{
    SystemConfig cfg;
    cfg.traveller.style = CacheStyle::TravellerSramTags;
    cfg.traveller.bypassProb = bypass;
    return cfg;
}

/** @p n distinct blocks sharing set 0 (low-bit index: stride numSets). */
std::vector<Addr>
sameSetBlocks(const TravellerCache &tc, std::uint32_t n)
{
    std::vector<Addr> out;
    for (std::uint32_t i = 0; i < n; ++i)
        out.push_back(static_cast<Addr>(i) * tc.numSets() * cachelineBytes);
    return out;
}

/** This process's VmRSS in KB, from /proc/self/status. */
std::int64_t
residentKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoll(line.substr(6));
    ADD_FAILURE() << "no VmRSS line in /proc/self/status";
    return 0;
}

} // namespace

TEST(TravellerCache, InsertThenLookup)
{
    auto cfg = smallCfg();
    TravellerCache tc(cfg, 1);
    EXPECT_FALSE(tc.lookup(0x1000));
    EXPECT_TRUE(tc.maybeInsert(0x1000));
    EXPECT_TRUE(tc.lookup(0x1000));
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.misses(), 1u);
}

TEST(TravellerCache, BypassProbabilityRoughlyHolds)
{
    auto cfg = smallCfg(0.4);
    TravellerCache tc(cfg, 7);
    int bypassed = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i)
        bypassed += tc.maybeInsert(static_cast<Addr>(i) * 64) ? 0 : 1;
    EXPECT_NEAR(static_cast<double>(bypassed) / trials, 0.4, 0.03);
    EXPECT_EQ(tc.bypasses(), static_cast<std::uint64_t>(bypassed));
}

TEST(TravellerCache, BulkInvalidateClearsEverything)
{
    auto cfg = smallCfg();
    TravellerCache tc(cfg, 1);
    for (Addr a = 0; a < 100 * 64; a += 64)
        tc.maybeInsert(a);
    EXPECT_GT(tc.occupancy(), 0u);
    tc.bulkInvalidate();
    EXPECT_EQ(tc.occupancy(), 0u);
    EXPECT_FALSE(tc.contains(0));
}

TEST(TravellerCache, SetNeverExceedsAssociativity)
{
    auto cfg = smallCfg();
    cfg.traveller.assoc = 4;
    TravellerCache tc(cfg, 1);
    // Insert far more blocks than capacity; no set may overflow, so
    // occupancy stays bounded and evictions occur.
    std::uint64_t n = tc.numSets() / 16;
    for (Addr a = 0; a < n * 64 * 64; a += 64)
        tc.maybeInsert(a);
    EXPECT_LE(tc.occupancy(), tc.capacityBlocks());
}

TEST(TravellerCache, EvictionReplacesWithinSet)
{
    auto cfg = smallCfg();
    cfg.memBytesPerUnit = 1ull << 20; // tiny cache: 256 blocks
    cfg.traveller.ratioDenom = 64;
    cfg.traveller.assoc = 1;
    TravellerCache tc(cfg, 1);
    ASSERT_EQ(tc.numSets(), 256u);
    // Fill aggressively; with assoc 1, evictions must happen.
    for (Addr a = 0; a < 256 * 64 * 8; a += 64)
        tc.maybeInsert(a);
    EXPECT_GT(tc.evictions(), 0u);
    EXPECT_LE(tc.occupancy(), 256u);
}

TEST(TravellerCache, ReinsertIsIdempotent)
{
    auto cfg = smallCfg();
    TravellerCache tc(cfg, 1);
    tc.maybeInsert(0x40);
    tc.maybeInsert(0x40);
    EXPECT_EQ(tc.occupancy(), 1u);
}

TEST(TravellerCache, DeterministicAcrossInstances)
{
    auto cfg = smallCfg(0.4);
    TravellerCache a(cfg, 42), b(cfg, 42);
    for (int i = 0; i < 1000; ++i) {
        Addr addr = static_cast<Addr>(i) * 64;
        ASSERT_EQ(a.maybeInsert(addr), b.maybeInsert(addr));
    }
}

TEST(TravellerCache, InvalidateDropsOnlyThatBlock)
{
    auto cfg = smallCfg();
    TravellerCache tc(cfg, 1);
    const auto blocks = sameSetBlocks(tc, tc.associativity());
    for (Addr b : blocks)
        ASSERT_TRUE(tc.maybeInsert(b));
    const std::uint64_t evicts = tc.evictions();

    EXPECT_TRUE(tc.invalidate(blocks[1]));
    EXPECT_FALSE(tc.invalidate(blocks[1])) << "already dropped";
    EXPECT_FALSE(tc.contains(blocks[1]));
    // The survivors were compacted in place: the lookup walk, which
    // stops at the first empty way, still finds every one of them.
    for (Addr b : {blocks[0], blocks[2], blocks[3]})
        EXPECT_TRUE(tc.lookup(b));
    EXPECT_EQ(tc.occupancy(), blocks.size() - 1);
    EXPECT_EQ(tc.evictions(), evicts + 1) << "a drop counts as eviction";

    // The freed way takes the next insert without a victim.
    ASSERT_TRUE(tc.maybeInsert(blocks[1]));
    EXPECT_EQ(tc.evictions(), evicts + 1);
    EXPECT_EQ(tc.occupancy(), blocks.size());

    // A set left behind by a bulk clear is empty: nothing to drop.
    tc.bulkInvalidate();
    EXPECT_FALSE(tc.invalidate(blocks[0]));
    EXPECT_EQ(tc.occupancy(), 0u);
}

TEST(TravellerCache, InvalidateEqualsOneBlockSweep)
{
    // The one-set probe and a whole-cache predicate sweep for the same
    // block leave identical contents, counters and way order; the
    // order shows in every later random victim draw.
    auto cfg = smallCfg(0.3);
    cfg.memBytesPerUnit = 1ull << 20; // 256 blocks: the sets fill up
    cfg.traveller.repl = ReplPolicy::Random;
    TravellerCache probe(cfg, 9), sweep(cfg, 9);
    Rng gen(0x51u);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = static_cast<Addr>(gen.below(2048)) * cachelineBytes;
        if (gen.below(4) == 0) {
            const bool dropped = probe.invalidate(a);
            ASSERT_EQ(dropped ? 1u : 0u, sweep.invalidateMatching(
                                             [a](Addr b) { return b == a; }))
                << "op " << i;
        } else {
            ASSERT_EQ(probe.maybeInsert(a), sweep.maybeInsert(a))
                << "op " << i;
        }
    }
    EXPECT_EQ(probe.occupancy(), sweep.occupancy());
    EXPECT_EQ(probe.evictions(), sweep.evictions());
    for (Addr a = 0; a < 2048 * cachelineBytes; a += cachelineBytes)
        ASSERT_EQ(probe.contains(a), sweep.contains(a)) << "block " << a;
}

TEST(TravellerCache, DefaultMachineCachesStayOutOfRss)
{
    // The default machine's 128 camp caches map 160 MB of tags and set
    // generations. Construction writes none of it, and a full
    // invalidateMatching() sweep only reads each set's generation,
    // which an untouched page serves from the shared zero page. The
    // bound holds under ASan too (+0.5 MB there).
    SystemConfig cfg;
    const std::int64_t before = residentKb();
    std::vector<std::unique_ptr<TravellerCache>> caches;
    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        caches.push_back(std::make_unique<TravellerCache>(
            cfg, mix64(cfg.seed ^ (0x1000ull + u))));
    std::uint64_t dropped = 0;
    for (auto &tc : caches)
        dropped += tc->invalidateMatching([](Addr) { return true; });
    const std::int64_t grewKb = residentKb() - before;
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(caches.size(), 128u);
    EXPECT_EQ(caches[0]->numSets(), 32768u);
    EXPECT_LT(grewKb, 4 * 1024) << "VmRSS grew by " << grewKb << " KB";
}

} // namespace abndp

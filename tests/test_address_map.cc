/**
 * @file
 * Tests for the shared address-decode arithmetic (mem/address_map.hh):
 * Pow2Split against plain division, and the three DramAddrMap
 * interleave orders against hand-computed coordinates.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/rng.hh"
#include "mem/address_map.hh"

namespace abndp
{

// ---- Pow2Split ---------------------------------------------------------

TEST(Pow2Split, MatchesPlainDivisionForPow2AndNot)
{
    Rng gen(0x9a11u);
    for (std::uint64_t d : {1ull, 2ull, 8ull, 64ull, 2048ull,
                            1ull << 32, 3ull, 7ull, 24ull, 1000ull}) {
        Pow2Split split(d);
        EXPECT_EQ(split.divisor(), d);
        EXPECT_EQ(split.isPow2(), (d & (d - 1)) == 0);
        for (int i = 0; i < 200; ++i) {
            std::uint64_t v = gen.next();
            ASSERT_EQ(split.div(v), v / d) << "d=" << d << " v=" << v;
            ASSERT_EQ(split.mod(v), v % d) << "d=" << d << " v=" << v;
        }
        EXPECT_EQ(split.div(0), 0u);
        EXPECT_EQ(split.mod(0), 0u);
    }
}

TEST(Pow2Split, DefaultActsAsDivisorOne)
{
    Pow2Split split;
    EXPECT_EQ(split.div(12345), 12345u);
    EXPECT_EQ(split.mod(12345), 0u);
}

// ---- DramAddrMap -------------------------------------------------------

namespace
{

DramConfig
geom(DramAddrMapKind kind)
{
    DramConfig d;
    d.addrMap = kind;
    d.banks = 8;
    d.bankGroups = 4;
    d.rowBytes = 2048;
    d.burstBytes = 64;
    return d;
}

constexpr std::uint64_t kUnitBytes = 1ull << 20;

} // namespace

TEST(DramAddrMap, RowBankColumnOrder)
{
    // column : bank : row — consecutive rows rotate across banks.
    DramAddrMap m(geom(DramAddrMapKind::RowBankColumn), kUnitBytes);
    DramCoord c = m.decode(0);
    EXPECT_EQ(c.row, 0u);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 0u);

    c = m.decode(100); // inside the first row
    EXPECT_EQ(c.row, 0u);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 100u);

    c = m.decode(2048); // next row chunk -> next bank
    EXPECT_EQ(c.bank, 1u);
    EXPECT_EQ(c.row, 0u);

    c = m.decode(2048ull * 8); // one full rotation -> row 1, bank 0
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.row, 1u);
}

TEST(DramAddrMap, RowColumnBankOrder)
{
    // burst : bank : column : row — bursts rotate across banks.
    DramAddrMap m(geom(DramAddrMapKind::RowColumnBank), kUnitBytes);
    DramCoord c = m.decode(0);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.row, 0u);

    c = m.decode(64); // next burst -> next bank, same row/column
    EXPECT_EQ(c.bank, 1u);
    EXPECT_EQ(c.column, 0u);
    EXPECT_EQ(c.row, 0u);

    c = m.decode(64ull * 8); // full bank rotation -> column 1
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 1u);
    EXPECT_EQ(c.row, 0u);

    // 2048/64 = 32 columns; a full row of every bank -> row 1.
    c = m.decode(64ull * 8 * 32);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 0u);
    EXPECT_EQ(c.row, 1u);
}

TEST(DramAddrMap, BankRowColumnOrder)
{
    // Each bank owns a contiguous 128 KB slice of the 1 MB unit.
    DramAddrMap m(geom(DramAddrMapKind::BankRowColumn), kUnitBytes);
    constexpr std::uint64_t slice = kUnitBytes / 8;
    DramCoord c = m.decode(0);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.row, 0u);

    c = m.decode(slice - 1); // last byte of bank 0's slice
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.row, slice / 2048 - 1);

    c = m.decode(slice); // first byte of bank 1's slice
    EXPECT_EQ(c.bank, 1u);
    EXPECT_EQ(c.row, 0u);
    EXPECT_EQ(c.column, 0u);

    // Addresses wrap modulo the unit region (range partitioning puts
    // the unit offset in the high bits).
    c = m.decode(kUnitBytes + 100);
    EXPECT_EQ(c.bank, 0u);
    EXPECT_EQ(c.column, 100u);
}

TEST(DramAddrMap, BankGroupsDealRoundRobin)
{
    DramAddrMap m(geom(DramAddrMapKind::RowBankColumn), kUnitBytes);
    for (std::uint64_t r = 0; r < 16; ++r) {
        DramCoord c = m.decode(r * 2048);
        EXPECT_EQ(c.bankGroup, c.bank % 4) << "row chunk " << r;
    }
}

TEST(DramAddrMap, AllOrdersCoverAllBanks)
{
    // A linear sweep of the unit region must touch every bank under
    // every interleave order (no decode dead zones).
    for (auto kind : {DramAddrMapKind::RowBankColumn,
                      DramAddrMapKind::RowColumnBank,
                      DramAddrMapKind::BankRowColumn}) {
        DramAddrMap m(geom(kind), kUnitBytes);
        std::uint64_t seen = 0;
        for (Addr a = 0; a < kUnitBytes; a += 64) {
            DramCoord c = m.decode(a);
            ASSERT_LT(c.bank, 8u);
            seen |= 1ull << c.bank;
        }
        EXPECT_EQ(seen, 0xffull) << nameOf(kind);
    }
}

} // namespace abndp

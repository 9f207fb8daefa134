/**
 * @file
 * SmallVec's three storage tiers (inline, heap, borrowed). The borrowed
 * tier is read-only: the graph workloads lend every task the same
 * run-lived per-vertex lists, so no operation on a task may write into
 * them. The capacity alone encodes the tier (0 borrowed, N inline,
 * more than N heap) and the inline elements overlay the pointer, so
 * the rows below also pin that every path into owned storage picks the
 * tier its capacity names.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "tasking/small_vec.hh"
#include "tasking/task.hh"

namespace abndp
{

// Two 32-bit counts and one pointer-sized overlay: a task's three
// address lists and its range list cost 24 bytes each.
static_assert(sizeof(SmallVec<Addr, 2>) == 24, "hint and block lists");
static_assert(sizeof(SmallVec<AddrRange, 1>) == 24, "hint range lists");

namespace
{

using Vec = SmallVec<std::uint64_t, 2>;

std::vector<std::uint64_t>
elems(const Vec &v)
{
    return {v.begin(), v.end()};
}

/** A lender's list and a pristine copy to compare it with. */
struct Lender
{
    std::vector<std::uint64_t> list{11, 22, 33, 44, 55};
    const std::vector<std::uint64_t> pristine = list;
};

/** The tier read back from the capacity alone (the file comment). */
template <typename V>
void
expectTierMatchesCapacity(const V &v, std::size_t n)
{
    switch (v.tier()) {
      case SmallVecTier::Borrowed:
        EXPECT_EQ(v.capacity(), 0u);
        break;
      case SmallVecTier::Inline:
        EXPECT_EQ(v.capacity(), n);
        break;
      case SmallVecTier::Heap:
        EXPECT_GT(v.capacity(), n);
        break;
    }
}

} // namespace

TEST(SmallVec, InlineTierHoldsUpToN)
{
    Vec v;
    EXPECT_EQ(v.tier(), SmallVecTier::Inline);
    v.push_back(1);
    v.push_back(2);
    EXPECT_EQ(v.tier(), SmallVecTier::Inline);
    EXPECT_EQ(v.capacity(), 2u);

    Vec moved(std::move(v));
    EXPECT_EQ(moved.tier(), SmallVecTier::Inline);
    EXPECT_EQ(elems(moved), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(v.empty());
}

TEST(SmallVec, HeapTierGrowsAndMovesThePointer)
{
    Vec v{1, 2, 3};
    EXPECT_EQ(v.tier(), SmallVecTier::Heap);
    for (std::uint64_t x = 4; x <= 20; ++x)
        v.push_back(x);
    EXPECT_EQ(v.size(), 20u);
    EXPECT_EQ(v[19], 20u);

    const std::uint64_t *buf = v.data();
    Vec moved(std::move(v));
    EXPECT_EQ(moved.data(), buf);
    EXPECT_EQ(moved.tier(), SmallVecTier::Heap);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.tier(), SmallVecTier::Inline);

    Vec copy(moved);
    EXPECT_NE(copy.data(), moved.data());
    EXPECT_EQ(elems(copy), elems(moved));
}

TEST(SmallVec, ResizeFillsReservedStorage)
{
    // reserve() within the inline capacity keeps the inline buffer.
    Vec small;
    small.reserve(2);
    EXPECT_EQ(small.tier(), SmallVecTier::Inline);

    // Past it, reserve() spills to a heap buffer of exactly that size,
    // which resize() and the pushes up to it then fill in place.
    Vec v;
    v.reserve(5);
    EXPECT_EQ(v.tier(), SmallVecTier::Heap);
    EXPECT_EQ(v.capacity(), 5u);
    const std::uint64_t *buf = std::as_const(v).data();
    v.resize(5);
    for (std::size_t i = 0; i < 5; ++i)
        v.data()[i] = 10 * i;
    v.truncate(3);
    v.push_back(30);
    v.push_back(40);
    EXPECT_EQ(std::as_const(v).data(), buf);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{0, 10, 20, 30, 40}));

    // Reserving keeps the elements already held.
    v.reserve(8);
    EXPECT_EQ(v.capacity(), 8u);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{0, 10, 20, 30, 40}));
}

TEST(SmallVec, BorrowedTierMoveCarriesThePointerCopyIsDeep)
{
    Lender l;
    Vec v;
    v.borrow(l.list.data(), l.list.size());
    EXPECT_EQ(v.tier(), SmallVecTier::Borrowed);
    EXPECT_EQ(std::as_const(v).data(), l.list.data());
    EXPECT_EQ(v.capacity(), 0u);
    EXPECT_EQ(elems(v), l.pristine);

    Vec moved(std::move(v));
    EXPECT_EQ(moved.tier(), SmallVecTier::Borrowed);
    EXPECT_EQ(std::as_const(moved).data(), l.list.data());
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.tier(), SmallVecTier::Inline);

    Vec copy(moved);
    EXPECT_EQ(copy.tier(), SmallVecTier::Heap);
    EXPECT_NE(std::as_const(copy).data(), l.list.data());
    EXPECT_EQ(elems(copy), l.pristine);
    copy[0] = 99;
    EXPECT_EQ(l.list, l.pristine);

    Vec assigned;
    assigned = moved;
    EXPECT_NE(std::as_const(assigned).data(), l.list.data());
    EXPECT_EQ(elems(assigned), l.pristine);
}

TEST(SmallVec, BorrowedTierPushBackPastTheEndCopiesFirst)
{
    Lender l;
    Vec v;
    v.borrow(l.list.data(), 3);
    v.push_back(77);
    EXPECT_EQ(v.tier(), SmallVecTier::Heap);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{11, 22, 33, 77}));
    EXPECT_EQ(l.list, l.pristine);

    // A trimmed borrow has room behind its end in the lender's list,
    // but push_back must not write there either.
    Vec t;
    t.borrow(l.list.data(), l.list.size());
    t.truncate(1);
    t.push_back(88);
    EXPECT_EQ(elems(t), (std::vector<std::uint64_t>{11, 88}));
    EXPECT_EQ(l.list, l.pristine);
}

TEST(SmallVec, BorrowedTierClearThenPushBackLeavesTheLenderAlone)
{
    Lender l;
    Vec v;
    v.borrow(l.list.data(), l.list.size());
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.tier(), SmallVecTier::Inline);
    v.push_back(5);
    v.push_back(6);
    v.push_back(7);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{5, 6, 7}));
    EXPECT_EQ(l.list, l.pristine);
}

TEST(SmallVec, BorrowedTierMutableAccessCopiesFirst)
{
    Lender l;
    Vec v;
    v.borrow(l.list.data(), l.list.size());
    v[1] = 1000;
    EXPECT_EQ(v.tier(), SmallVecTier::Heap);
    EXPECT_EQ(v[1], 1000u);
    EXPECT_EQ(v[4], 55u);
    EXPECT_EQ(l.list, l.pristine);

    Vec w;
    w.borrow(l.list.data(), 2);
    *w.begin() = 1;
    EXPECT_EQ(w.tier(), SmallVecTier::Inline);
    EXPECT_EQ(elems(w), (std::vector<std::uint64_t>{1, 22}));
    EXPECT_EQ(l.list, l.pristine);
}

TEST(SmallVec, ShortBorrowedListMadeWritableLandsInline)
{
    // Every way a borrowed list of N or fewer elements becomes
    // writable must land inline: a heap buffer that short would read
    // as the inline tier.
    using Op = void (*)(Vec &);
    const Op ops[] = {
        [](Vec &v) { v.data(); },
        [](Vec &v) { v.resize(v.size()); },
        [](Vec &v) { v.resize(2); },
        [](Vec &v) { v.reserve(2); },
        [](Vec &v) { v.reserve(1); },
    };
    for (std::size_t k = 1; k <= 2; ++k) {
        for (std::size_t op = 0; op < std::size(ops); ++op) {
            SCOPED_TRACE("k=" + std::to_string(k)
                         + " op=" + std::to_string(op));
            Lender l;
            Vec v;
            v.borrow(l.list.data(), k);
            ops[op](v);
            EXPECT_EQ(v.tier(), SmallVecTier::Inline);
            expectTierMatchesCapacity(v, 2);
            ASSERT_GE(v.size(), k);
            EXPECT_EQ(std::vector<std::uint64_t>(v.begin(), v.begin() + k),
                      std::vector<std::uint64_t>(l.list.begin(),
                                                 l.list.begin() + k));
            v[0] = 0;
            EXPECT_EQ(l.list, l.pristine);
        }
    }

    // A short borrow's push_back fills the inline buffer first.
    Lender l;
    Vec one;
    one.borrow(l.list.data(), 1);
    one.push_back(9);
    EXPECT_EQ(one.tier(), SmallVecTier::Inline);
    expectTierMatchesCapacity(one, 2);
    EXPECT_EQ(elems(one), (std::vector<std::uint64_t>{11, 9}));

    // An empty borrow made writable is an empty inline list.
    Vec none;
    none.borrow(l.list.data(), 0);
    none.data();
    EXPECT_EQ(none.tier(), SmallVecTier::Inline);
    EXPECT_TRUE(none.empty());

    // Past N, the owned copy is an exact heap buffer.
    Vec three;
    three.borrow(l.list.data(), 3);
    three.resize(3);
    EXPECT_EQ(three.tier(), SmallVecTier::Heap);
    EXPECT_EQ(three.capacity(), 3u);
    EXPECT_EQ(elems(three), (std::vector<std::uint64_t>{11, 22, 33}));
    EXPECT_EQ(l.list, l.pristine);
}

TEST(SmallVec, OneSlotBufferOverlayingThePointerCopiesTheRange)
{
    // N = 1 ranges: the inline element covers the whole pointer, so
    // the copy must read the lender's range before writing the buffer.
    using Ranges = SmallVec<AddrRange, 1>;
    const std::vector<AddrRange> lent{{0x4000, 192}, {0x8000, 64}};
    Ranges r;
    r.borrow(lent.data(), 1);
    r.front().bytes = 128;
    EXPECT_EQ(r.tier(), SmallVecTier::Inline);
    expectTierMatchesCapacity(r, 1);
    EXPECT_EQ(r[0].start, 0x4000u);
    EXPECT_EQ(r[0].bytes, 128u);
    EXPECT_EQ(lent[0].bytes, 192u);

    Ranges two;
    two.borrow(lent.data(), 2);
    two.push_back({0xc000, 8});
    EXPECT_EQ(two.tier(), SmallVecTier::Heap);
    expectTierMatchesCapacity(two, 1);
    ASSERT_EQ(two.size(), 3u);
    EXPECT_EQ(two[1].start, 0x8000u);
    EXPECT_EQ(two[2].start, 0xc000u);
}

TEST(SmallVec, MoveOfEachTierLeavesTheSourceInlineAndEmpty)
{
    Lender l;
    auto inlineList = [] { return Vec{1, 2}; };
    auto heapList = [] { return Vec{1, 2, 3, 4}; };
    auto borrowedList = [&l] {
        Vec v;
        v.borrow(l.list.data(), 3);
        return v;
    };
    using Make = std::function<Vec()>;
    const Make makes[] = {inlineList, heapList, borrowedList};
    const SmallVecTier tiers[] = {SmallVecTier::Inline, SmallVecTier::Heap,
                                  SmallVecTier::Borrowed};
    for (std::size_t i = 0; i < std::size(makes); ++i) {
        SCOPED_TRACE("tier " + std::to_string(i));
        const std::vector<std::uint64_t> want = elems(makes[i]());

        Vec src = makes[i]();
        ASSERT_EQ(src.tier(), tiers[i]);
        Vec constructed(std::move(src));
        EXPECT_EQ(constructed.tier(), tiers[i]);
        EXPECT_EQ(elems(constructed), want);
        EXPECT_TRUE(src.empty());
        EXPECT_EQ(src.tier(), SmallVecTier::Inline);
        expectTierMatchesCapacity(src, 2);

        // Move-assign into each tier, too: the target's old storage
        // is let go and the source again ends inline and empty.
        for (std::size_t j = 0; j < std::size(makes); ++j) {
            Vec target = makes[j]();
            Vec from = makes[i]();
            target = std::move(from);
            EXPECT_EQ(target.tier(), tiers[i]);
            EXPECT_EQ(elems(target), want);
            EXPECT_TRUE(from.empty());
            EXPECT_EQ(from.tier(), SmallVecTier::Inline);
            expectTierMatchesCapacity(from, 2);
        }

        // A moved-from list is usable again from the inline tier.
        src.push_back(7);
        EXPECT_EQ(elems(src), (std::vector<std::uint64_t>{7}));
    }
    EXPECT_EQ(l.list, l.pristine);
}

TEST(SmallVec, CopyAssignFromTheListsOwnBorrowedSpan)
{
    // v = alias, where alias views v's own borrowed span: the copy
    // must read the lender's elements before v's storage changes,
    // into the inline buffer (which overlays v's pointer) or a heap
    // buffer.
    for (std::size_t k : {1u, 2u, 5u}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        Lender l;
        Vec v;
        v.borrow(l.list.data(), k);
        Vec alias;
        alias.borrow(std::as_const(v).data(), v.size());
        v = alias;
        EXPECT_EQ(v.tier(), k <= 2 ? SmallVecTier::Inline
                                   : SmallVecTier::Heap);
        expectTierMatchesCapacity(v, 2);
        EXPECT_NE(std::as_const(v).data(), l.list.data());
        EXPECT_EQ(elems(v), std::vector<std::uint64_t>(
                                l.list.begin(), l.list.begin() + k));
        v[0] = 0;
        EXPECT_EQ(l.list, l.pristine);
    }
}

} // namespace abndp

/**
 * @file
 * SmallVec's four storage tiers (inline, arena, heap, borrowed) and the
 * TaskArena behind the arena tier. The borrowed tier is read-only: the
 * graph workloads lend every task the same run-lived per-vertex lists,
 * so no operation on a task may write into them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "tasking/small_vec.hh"
#include "tasking/task_arena.hh"

namespace abndp
{

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

TEST(SmallVec, ArenaTierSpillsExactlyAndFallsBackToHeap)
{
    TaskArena arena;
    Vec small;
    small.reserveIn(arena, 2);
    EXPECT_EQ(small.tier(), SmallVecTier::Inline);
    EXPECT_EQ(arena.capacityBytes(), 0u);

    Vec v;
    v.reserveIn(arena, 3);
    EXPECT_EQ(v.tier(), SmallVecTier::Arena);
    EXPECT_EQ(v.capacity(), 3u);
    EXPECT_GT(arena.capacityBytes(), 0u);
    const std::uint64_t *spill = v.data();
    v.push_back(1);
    v.push_back(2);
    v.push_back(3);
    EXPECT_EQ(v.data(), spill);

    // Overflowing the reservation moves to the heap; a copy never
    // aliases the arena.
    v.push_back(4);
    EXPECT_EQ(v.tier(), SmallVecTier::Heap);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{1, 2, 3, 4}));

    Vec w;
    w.reserveIn(arena, 4);
    w.push_back(7);
    Vec copy(w);
    EXPECT_NE(copy.tier(), SmallVecTier::Arena);
    Vec moved(std::move(w));
    EXPECT_EQ(moved.tier(), SmallVecTier::Arena);
}

TEST(SmallVec, ResizeFillsReservedStorage)
{
    TaskArena arena;
    Vec v;
    v.reserveIn(arena, 5);
    v.resize(5);
    for (std::size_t i = 0; i < 5; ++i)
        v.data()[i] = 10 * i;
    v.truncate(3);
    EXPECT_EQ(v.tier(), SmallVecTier::Arena);
    EXPECT_EQ(elems(v), (std::vector<std::uint64_t>{0, 10, 20}));
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

TEST(TaskArena, AllocatesAlignedDistinctSpans)
{
    TaskArena arena;
    EXPECT_EQ(arena.capacityBytes(), 0u);
    auto *a = arena.alloc<std::uint64_t>(3);
    auto *b = arena.alloc<std::uint64_t>(5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::uint64_t),
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::uint64_t),
              0u);
    EXPECT_GE(b, a + 3);
    EXPECT_GT(arena.capacityBytes(), 0u);
}

TEST(TaskArena, SteadyEpochsReuseCoalescedGenerations)
{
    // Two generations of a workload that allocates the same amount
    // each epoch: after the first rotations have coalesced the chunk
    // lists, further epochs reserve nothing new.
    TaskArena arena;
    auto epoch = [&arena] {
        arena.rotate();
        for (int i = 0; i < 200; ++i)
            arena.alloc<std::uint64_t>(100); // 160 KB: several chunks
    };
    for (int e = 0; e < 4; ++e)
        epoch();
    const std::size_t steady = arena.capacityBytes();
    for (int e = 0; e < 6; ++e)
        epoch();
    EXPECT_EQ(arena.capacityBytes(), steady);

    // A span stays valid across one rotation (the other generation).
    arena.rotate();
    auto *keep = arena.alloc<std::uint64_t>(1);
    *keep = 42;
    arena.rotate();
    arena.alloc<std::uint64_t>(1000);
    EXPECT_EQ(*keep, 42u);
}

} // namespace abndp

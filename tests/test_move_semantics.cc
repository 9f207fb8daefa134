/**
 * @file
 * Move-semantics regression tests for the task transit paths.
 *
 * A task is moved once, into the NdpSystem's TaskPool, when the runtime
 * accepts it; from there to dispatch, the unit queues, forwards, steal
 * and shed batches, and recovery transits carry 4-byte TaskRef handles.
 * Task stays move-only (it owns or borrows its payload spans, so a
 * stray copy would either fail to compile or silently double-account
 * payload lines). The static_asserts pin both type contracts and the
 * 160-byte Task every pool slot holds; the span-move row pins that a
 * moved task's spans, whatever their tier, leave the source inline
 * and empty; the run-twice fingerprint tests pin that handing tasks
 * through forward, steal, failure-drain, and redispatch leaves
 * simulated behavior bit-identical and deterministic.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "tasking/task.hh"
#include "tasking/task_pool.hh"
#include "workloads/factory.hh"

namespace abndp
{

// The type contract the transit paths rely on: tasks move, never copy.
static_assert(std::is_move_constructible_v<Task>,
              "Task must be move-constructible");
static_assert(std::is_move_assignable_v<Task>,
              "Task must be move-assignable");
static_assert(!std::is_copy_constructible_v<Task>,
              "Task must not be copyable (transit paths must move)");
static_assert(!std::is_copy_assignable_v<Task>,
              "Task must not be copy-assignable");
static_assert(std::is_nothrow_move_constructible_v<Task>,
              "Task moves must not throw (vector growth would copy)");
// Every staged task costs one pool slot of sizeof(Task) bytes; the
// field order packs the 32-bit and 8-bit fields into shared words.
static_assert(sizeof(Task) <= 160, "a staged task costs at most 160 bytes");

// Between enqueue and dispatch a task never moves: every carrier holds
// a 4-byte handle into the pool.
static_assert(sizeof(TaskRef) == 4, "a task handle is 32 bits");
static_assert(std::is_trivially_copyable_v<TaskRef>,
              "task handles are copied, not moved");
static_assert(std::is_same_v<decltype(NdpUnit::pending),
                             SlidingDeque<TaskRef>>
                  && std::is_same_v<decltype(NdpUnit::ready),
                                    SlidingDeque<TaskRef>>
                  && std::is_same_v<decltype(NdpUnit::stagedPending),
                                    SlidingDeque<TaskRef>>
                  && std::is_same_v<decltype(NdpUnit::stagedReady),
                                    SlidingDeque<TaskRef>>,
              "unit queues hold task handles, not tasks");

namespace
{

/** 2x2 mesh, 2 units/stack (8 units), 2 cores; checkers armed. */
SystemConfig
smallConfig(Design d)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    cfg = applyDesign(cfg, d);
    cfg.checkInvariants = true;
    return cfg;
}

/** Run pr-tiny under @p cfg and return the full stats-registry dump. */
std::string
runAndDump(const SystemConfig &cfg)
{
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    return oss.str();
}

} // namespace

TEST(TransitMoveSemantics, TaskMoveLeavesEverySpanInlineAndEmpty)
{
    // One task with a span on each tier: a heap hint list, an inline
    // range list and write list, and a borrowed block list.
    const std::vector<Addr> lent{0x1000, 0x1040, 0x2000};
    auto make = [&lent] {
        Task t;
        t.arg = 42;
        t.hint.data = {0x1000, 0x1040, 0x2000};
        t.hint.ranges = {{0x2000, 64}};
        t.writes = {0x3000};
        t.blocks.borrow(lent.data(), lent.size());
        return t;
    };
    auto expectEmptyInline = [](const Task &t) {
        EXPECT_TRUE(t.hint.data.empty());
        EXPECT_TRUE(t.hint.ranges.empty());
        EXPECT_TRUE(t.writes.empty());
        EXPECT_TRUE(t.blocks.empty());
        EXPECT_EQ(t.hint.data.tier(), SmallVecTier::Inline);
        EXPECT_EQ(t.hint.ranges.tier(), SmallVecTier::Inline);
        EXPECT_EQ(t.writes.tier(), SmallVecTier::Inline);
        EXPECT_EQ(t.blocks.tier(), SmallVecTier::Inline);
    };

    Task src = make();
    ASSERT_EQ(src.hint.data.tier(), SmallVecTier::Heap);
    ASSERT_EQ(src.blocks.tier(), SmallVecTier::Borrowed);
    TaskPool pool;
    const TaskRef ref = pool.add(std::move(src));
    expectEmptyInline(src);
    const Task &held = pool[ref];
    EXPECT_EQ(held.arg, 42u);
    EXPECT_EQ(held.hint.data.tier(), SmallVecTier::Heap);
    EXPECT_EQ(held.hint.data.back(), 0x2000u);
    EXPECT_EQ(held.hint.ranges.front().bytes, 64u);
    EXPECT_EQ(held.writes.front(), 0x3000u);
    EXPECT_EQ(held.blocks.data(), lent.data());

    Task assigned = make();
    assigned = std::move(pool[ref]);
    expectEmptyInline(pool[ref]);
    pool.release(ref);
    EXPECT_EQ(assigned.hint.data.size(), 3u);
    EXPECT_EQ(assigned.blocks.tier(), SmallVecTier::Borrowed);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(TransitMoveSemantics, StealPathBitIdenticalAcrossRuns)
{
    // Sl exercises StealTransit: steal batches are drained from victim
    // queues and delivered (or redispatched) as task handles. Two runs
    // of the same config must produce byte-identical stats dumps.
    auto cfg = smallConfig(Design::Sl);
    std::string a = runAndDump(cfg);
    std::string b = runAndDump(cfg);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(TransitMoveSemantics, RecoveryPathBitIdenticalAcrossRuns)
{
    // Sl + a mid-run unit failure exercises every move site at once:
    // steal batches, failure-time queue drains, delivery-ack
    // redispatch, and re-injection of recovered tasks.
    auto cfg = smallConfig(Design::Sl);
    cfg.fault.unitFailure.count = 2;
    cfg.fault.unitFailure.failAtNs = 150.0;
    std::string a = runAndDump(cfg);
    std::string b = runAndDump(cfg);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("tasksRecovered"), std::string::npos);
}

TEST(TransitMoveSemantics, ForwardPathBitIdenticalAcrossRuns)
{
    // O exercises TaskTransit: scheduling-window forwards tracked for
    // delivery acks, with the task's handle carried by the transit.
    auto cfg = smallConfig(Design::O);
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.failAtNs = 100.0;
    cfg.fault.unitFailure.recoverAtNs = 400.0;
    std::string a = runAndDump(cfg);
    std::string b = runAndDump(cfg);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

} // namespace abndp

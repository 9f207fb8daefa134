/**
 * @file
 * TaskPool: the address-stable task storage behind every unit queue,
 * forward, steal/shed batch and recovery transit. The unit tests pin
 * the two storage contracts dispatch relies on (a held Task& survives
 * growth, released slots are reused first); the end-to-end tests run
 * each path that hands tasks around and require the pool to come out
 * drained, with the machine checker (and its checkTaskPoolDrained law)
 * armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "tasking/task_pool.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

Task
taskWithArg(std::uint64_t arg)
{
    Task t;
    t.arg = arg;
    t.hint.data = {0x1000 + arg * 64};
    return t;
}

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

/** Staged tasks across all units of @p sys. */
std::uint64_t
stagedTasks(NdpSystem &sys)
{
    std::uint64_t n = 0;
    for (UnitId u = 0; u < sys.numUnits(); ++u)
        n += sys.unit(u).stagedPending.size()
            + sys.unit(u).stagedReady.size();
    return n;
}

/** Run pr-tiny under @p cfg; the pool must end drained. */
RunMetrics
runDrained(const SystemConfig &cfg)
{
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.tasks, 0u);
    EXPECT_EQ(sys.taskPool().live(), 0u);
    return m;
}

} // namespace

TEST(TaskPool, HeldReferenceSurvivesNewChunks)
{
    // Dispatch holds a Task& across executeTask, whose child enqueues
    // add to the pool; opening a chunk must not move the held task.
    TaskPool pool;
    const TaskRef ref = pool.add(taskWithArg(7));
    Task &held = pool[ref];
    const std::size_t first = pool.capacity();
    for (std::uint32_t i = 0; i < TaskPool::chunkSlots + 1; ++i)
        pool.add(taskWithArg(100 + i));
    EXPECT_GT(pool.capacity(), first);
    EXPECT_EQ(&pool[ref], &held);
    EXPECT_EQ(held.arg, 7u);
    ASSERT_EQ(held.hint.data.size(), 1u);
    EXPECT_EQ(held.hint.data[0], 0x1000u + 7 * 64);
    EXPECT_EQ(pool.live(), TaskPool::chunkSlots + 2u);
}

TEST(TaskPool, ReleasedSlotsAreReusedBeforeGrowth)
{
    TaskPool pool;
    std::vector<TaskRef> refs;
    for (std::uint32_t i = 0; i < TaskPool::chunkSlots; ++i)
        refs.push_back(pool.add(taskWithArg(i)));
    EXPECT_EQ(pool.capacity(), TaskPool::chunkSlots);

    pool.release(refs[5]);
    pool.release(refs[9]);
    EXPECT_EQ(pool.live(), TaskPool::chunkSlots - 2u);
    // Last released, first reused; the full chunk does not grow.
    EXPECT_EQ(pool.add(taskWithArg(1009)), refs[9]);
    EXPECT_EQ(pool.add(taskWithArg(1005)), refs[5]);
    EXPECT_EQ(pool.capacity(), TaskPool::chunkSlots);
    EXPECT_EQ(pool[refs[9]].arg, 1009u);
    EXPECT_EQ(pool[refs[5]].arg, 1005u);
    EXPECT_EQ(pool[refs[6]].arg, 6u);

    // Only once no slot is free does a new chunk open.
    pool.add(taskWithArg(2000));
    EXPECT_EQ(pool.capacity(), 2u * TaskPool::chunkSlots);
    EXPECT_EQ(pool.live(), TaskPool::chunkSlots + 1u);
}

TEST(TaskPoolDrained, StealBatchesUnderSl)
{
    RunMetrics m = runDrained(smallConfig(Design::Sl));
    EXPECT_GT(m.stolenTasks, 0u);
}

TEST(TaskPoolDrained, ShedBatchesUnderHlb)
{
    // A short exchange interval opens lb windows inside the tiny run.
    SystemConfig cfg = smallConfig(Design::Hlb);
    cfg.sched.exchangeIntervalCycles = 1000;
    RunMetrics m = runDrained(cfg);
    EXPECT_GT(m.tasksShedIntra + m.tasksShedInter, 0u);
}

TEST(TaskPoolDrained, RecoveryTransitsUnderOWithAUnitFailing)
{
    // A unit dies mid-run: its queues drain into re-injections, and
    // forwards to it time out and are redispatched.
    SystemConfig cfg = smallConfig(Design::O);
    cfg.fault.unitFailure.units = {3};
    cfg.fault.unitFailure.failAtNs = 100.0;
    RunMetrics m = runDrained(cfg);
    EXPECT_GT(m.forwardedTasks, 0u);
    EXPECT_GT(m.tasksRecovered, 0u);
    EXPECT_GT(m.tasksRedispatched, 0u);
}

TEST(TaskPoolDrained, ServedRequestsUnderO)
{
    SystemConfig cfg = smallConfig(Design::O);
    cfg.serving.requests = 500;
    cfg.serving.ratePerUs = 4.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.servingCompletedDirect, 0u);
    EXPECT_EQ(sys.taskPool().live(), 0u);
}

TEST(TaskPoolDrained, MaxEpochsCutKeepsOnlyStagedTasks)
{
    // The epoch that never runs keeps its staged tasks in the pool.
    SystemConfig cfg = smallConfig(Design::O);
    cfg.maxEpochs = 1;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    sys.run(*wl);
    EXPECT_GT(stagedTasks(sys), 0u);
    EXPECT_EQ(sys.taskPool().live(), stagedTasks(sys));
}

} // namespace abndp

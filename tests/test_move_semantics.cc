/**
 * @file
 * Move-semantics regression tests for the task transit paths.
 *
 * A task is moved once, into the NdpSystem's TaskPool, when the runtime
 * accepts it; from there to dispatch, the unit queues, forwards, steal
 * and shed batches, and recovery transits carry 4-byte TaskRef handles.
 * Task stays move-only (it owns or borrows its payload spans, so a
 * stray copy would either fail to compile or silently double-account
 * payload lines). The static_asserts pin both type
 * contracts; the run-twice fingerprint tests pin that handing tasks
 * through forward, steal, failure-drain, and redispatch leaves
 * simulated behavior bit-identical and deterministic.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

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

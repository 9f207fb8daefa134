/**
 * @file
 * Tests for the scheduling-policy registry: name-based construction,
 * and — the point of the exercise — that a brand-new policy registered
 * from this translation unit runs by name without touching any core
 * file.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "sched/policy_registry.hh"
#include "sched/scheduler.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/**
 * Toy window policy that never keeps a task: every scheduling-window
 * decision sends it to the next unit. The per-task forward-hop budget
 * bounds the resulting descriptor ping-pong, so runs still terminate.
 */
class AlwaysForwardPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "always-forward"; }

    UnitId
    choose(Scheduler &sched, const Task &task, UnitId creator) override
    {
        (void)task;
        return static_cast<UnitId>((creator + 1) % sched.unitCount());
    }

    bool usesSchedulingWindow() const override { return true; }
};

} // namespace

TEST(PolicyRegistry, MakeByNameAndBuiltinMapping)
{
    SystemConfig cfg;
    auto p = makeSchedulingPolicy("memmatch", cfg);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), "memmatch");

    EXPECT_STREQ(builtinPolicyName(SchedPolicy::Colocate), "local");
    EXPECT_STREQ(builtinPolicyName(SchedPolicy::LowestDistance),
                 "memmatch");
    EXPECT_STREQ(builtinPolicyName(SchedPolicy::Hybrid), "hybrid");
}

TEST(PolicyRegistryDeathTest, UnknownNamesAreFatal)
{
    SystemConfig cfg;
    EXPECT_DEATH((void)makeSchedulingPolicy("no-such-policy", cfg),
                 "unknown scheduling policy");
}

TEST(PolicyRegistry, NewPolicyComposesIntoRunnableDesign)
{
    // Register a policy from this file only — no edits to the
    // scheduler, config, or epoch engine — pick it by name on top of a
    // Table-2 design, and run a workload under it.
    registerSchedulingPolicy("always-forward", [](const SystemConfig &) {
        return std::make_unique<AlwaysForwardPolicy>();
    });

    SystemConfig cfg = applyDesign(SystemConfig{}, Design::B);
    cfg.sched.policyName = "always-forward";
    NdpSystem sys(cfg);
    EXPECT_STREQ(sys.scheduler().policy().name(), "always-forward");
    EXPECT_TRUE(sys.scheduler().usesSchedulingWindow());

    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.tasks, 0u);
    // Every scheduling-window decision forwarded its task.
    EXPECT_GT(m.forwardedTasks, 0u);
}

} // namespace abndp

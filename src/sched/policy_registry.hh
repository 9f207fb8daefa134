/**
 * @file
 * Registries for scheduling policies and design points.
 *
 * A scheduling policy registers under a name; a *design point* is a
 * named (policy, work stealing, cache layer) composition — exactly the
 * axes Table 2 varies. Registering both from one translation unit is
 * all it takes to make a new design runnable:
 *
 *     registerSchedulingPolicy("mine", [](const SystemConfig &) {
 *         return std::make_unique<MyPolicy>();
 *     });
 *     registerDesignPoint("M", {"mine", false, CacheStyle::None});
 *     SystemConfig cfg = composeDesign(SystemConfig{}, "M");
 *
 * The built-in policies ("local", "memmatch", "hybrid") and the Table-2
 * design points (B, Sm, Sl, Sh, C, O, the host-only H, and the HLB /
 * HLB-mig extension rows) are seeded on first use, so composeDesign()
 * also understands the paper's names. This registry is the only design
 * table: applyDesign() (common/config.hh) is its enum-keyed alias.
 */

#ifndef ABNDP_SCHED_POLICY_REGISTRY_HH
#define ABNDP_SCHED_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sched/scheduling_policy.hh"

namespace abndp
{

/** Factory building a policy instance for one system configuration. */
using PolicyFactory =
    std::function<std::unique_ptr<SchedulingPolicy>(const SystemConfig &)>;

/**
 * Register (or replace) a policy factory under @p name.
 * @return true if a previous registration was replaced.
 */
bool registerSchedulingPolicy(const std::string &name,
                              PolicyFactory factory);

/** Instantiate the policy registered as @p name; fatal() if unknown. */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const std::string &name, const SystemConfig &cfg);

/**
 * Build the policy object @p cfg asks for: the registered
 * cfg.sched.policyName if set, otherwise the built-in policy matching
 * cfg.sched.policy, wrapped in the work-stealing decorator when
 * cfg.sched.workStealing is on.
 */
std::unique_ptr<SchedulingPolicy>
makeConfiguredPolicy(const SystemConfig &cfg);

/** Registered policy names, sorted (diagnostics and tests). */
std::vector<std::string> registeredPolicyNames();

/** Name of the built-in policy implementing @p policy. */
const char *builtinPolicyName(SchedPolicy policy);

/** One named composition of the (extended) Table-2 axes. */
struct DesignSpec
{
    /** Registered scheduling-policy name. */
    std::string schedPolicy = "local";
    /** Compose the work-stealing decorator around the policy. */
    bool workStealing = false;
    /** Cache layer between the units and their DRAM homes. */
    CacheStyle cache = CacheStyle::None;
    /** Arm the hierarchical load balancer (src/sched/lb). */
    bool lb = false;
    /** Arm hotness-driven data re-homing (requires @ref lb). */
    bool migrate = false;
};

/**
 * Register (or replace) a design point under @p name.
 * @return true if a previous registration was replaced.
 */
bool registerDesignPoint(const std::string &name, DesignSpec spec);

/**
 * Apply the design point registered as @p name on top of @p base;
 * fatal() if unknown. Sets cfg.sched.policyName (never the
 * SchedPolicy enum), so makeConfiguredPolicy() builds the registered
 * policy.
 */
SystemConfig composeDesign(SystemConfig base, const std::string &name);

/** Registered design-point names, sorted (diagnostics and tests). */
std::vector<std::string> registeredDesignPoints();

} // namespace abndp

#endif // ABNDP_SCHED_POLICY_REGISTRY_HH

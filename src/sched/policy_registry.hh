/**
 * @file
 * Registry of scheduling policies.
 *
 * A scheduling policy registers under a name, from any translation
 * unit, and a configuration picks it through sched.policyName:
 *
 *     registerSchedulingPolicy("mine", [](const SystemConfig &) {
 *         return std::make_unique<MyPolicy>();
 *     });
 *     cfg.sched.policyName = "mine";
 *
 * The built-in policies ("local", "memmatch", "hybrid") are seeded on
 * first use. The design points of Table 2 name these policies in the
 * design table (common/config.cc), which applyDesign() reads.
 */

#ifndef ABNDP_SCHED_POLICY_REGISTRY_HH
#define ABNDP_SCHED_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

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

/** Name of the built-in policy implementing @p policy. */
const char *builtinPolicyName(SchedPolicy policy);

} // namespace abndp

#endif // ABNDP_SCHED_POLICY_REGISTRY_HH

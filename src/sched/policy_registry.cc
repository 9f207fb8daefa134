#include "sched/policy_registry.hh"

#include <map>
#include <utility>

#include "common/logging.hh"
#include "sched/policies/hybrid_policy.hh"
#include "sched/policies/local_policy.hh"
#include "sched/policies/mem_match_policy.hh"
#include "sched/policies/work_stealing_policy.hh"

namespace abndp
{

namespace
{

// A function-local static: the registry is usable from static
// initializers of other translation units regardless of link order.
// The simulator itself is single-threaded per instance and policies
// are registered at startup, so no locking is needed.

std::map<std::string, PolicyFactory> &
policyMap()
{
    static std::map<std::string, PolicyFactory> m;
    return m;
}

template <typename P>
PolicyFactory
simpleFactory()
{
    return [](const SystemConfig &) { return std::make_unique<P>(); };
}

/** Seed the built-in policies exactly once. */
void
ensureBuiltins()
{
    static const bool seeded = [] {
        policyMap().emplace("local", simpleFactory<LocalPolicy>());
        policyMap().emplace("memmatch", simpleFactory<MemMatchPolicy>());
        policyMap().emplace("hybrid", simpleFactory<HybridPolicy>());
        return true;
    }();
    (void)seeded;
}

} // namespace

bool
registerSchedulingPolicy(const std::string &name, PolicyFactory factory)
{
    ensureBuiltins();
    abndp_assert(factory != nullptr,
                 "null factory for scheduling policy ", name);
    bool replaced = policyMap().count(name) > 0;
    policyMap()[name] = std::move(factory);
    return replaced;
}

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const std::string &name, const SystemConfig &cfg)
{
    ensureBuiltins();
    auto it = policyMap().find(name);
    if (it == policyMap().end()) {
        std::string known;
        for (const auto &[registered, factory] : policyMap())
            known += (known.empty() ? "" : ", ") + registered;
        fatal("unknown scheduling policy '", name, "' (registered: ",
              known, ")");
    }
    auto policy = it->second(cfg);
    abndp_assert(policy != nullptr,
                 "factory for scheduling policy ", name, " returned null");
    return policy;
}

std::unique_ptr<SchedulingPolicy>
makeConfiguredPolicy(const SystemConfig &cfg)
{
    const std::string &name = cfg.sched.policyName.empty()
        ? builtinPolicyName(cfg.sched.policy)
        : cfg.sched.policyName;
    auto policy = makeSchedulingPolicy(name, cfg);
    if (cfg.sched.workStealing)
        policy = std::make_unique<WorkStealingPolicy>(std::move(policy));
    return policy;
}

const char *
builtinPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::Colocate: return "local";
      case SchedPolicy::LowestDistance: return "memmatch";
      case SchedPolicy::Hybrid: return "hybrid";
    }
    panic("unknown SchedPolicy enumerator");
}

} // namespace abndp

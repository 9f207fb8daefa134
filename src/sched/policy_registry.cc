#include "sched/policy_registry.hh"

#include <map>
#include <sstream>
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

// Function-local statics: the registries are usable from static
// initializers of other translation units regardless of link order.
// The simulator itself is single-threaded per instance and policies
// are registered at startup, so no locking is needed.

std::map<std::string, PolicyFactory> &
policyMap()
{
    static std::map<std::string, PolicyFactory> m;
    return m;
}

std::map<std::string, DesignSpec> &
designMap()
{
    static std::map<std::string, DesignSpec> m;
    return m;
}

template <typename P>
PolicyFactory
simpleFactory()
{
    return [](const SystemConfig &) { return std::make_unique<P>(); };
}

/** Seed the built-in policies and Table-2 design points exactly once. */
void
ensureBuiltins()
{
    static const bool seeded = [] {
        policyMap().emplace("local", simpleFactory<LocalPolicy>());
        policyMap().emplace("memmatch", simpleFactory<MemMatchPolicy>());
        policyMap().emplace("hybrid", simpleFactory<HybridPolicy>());

        const CacheStyle trav = CacheStyle::TravellerSramTags;
        designMap().emplace("H", DesignSpec{"local", false,
                                            CacheStyle::None});
        designMap().emplace("B", DesignSpec{"local", false,
                                            CacheStyle::None});
        designMap().emplace("Sm", DesignSpec{"memmatch", false,
                                             CacheStyle::None});
        designMap().emplace("Sl", DesignSpec{"memmatch", true,
                                             CacheStyle::None});
        designMap().emplace("Sh", DesignSpec{"hybrid", false,
                                             CacheStyle::None});
        designMap().emplace("C", DesignSpec{"memmatch", false, trav});
        designMap().emplace("O", DesignSpec{"hybrid", false, trav});
        designMap().emplace("HLB", DesignSpec{"hybrid", false, trav,
                                              true, false});
        designMap().emplace("HLB-mig", DesignSpec{"hybrid", false, trav,
                                                  true, true});
        return true;
    }();
    (void)seeded;
}

template <typename Map>
std::string
knownNames(const Map &m)
{
    std::ostringstream oss;
    bool first = true;
    for (const auto &[name, value] : m) {
        oss << (first ? "" : ", ") << name;
        first = false;
    }
    return oss.str();
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
    if (it == policyMap().end())
        fatal("unknown scheduling policy '", name, "' (registered: ",
              knownNames(policyMap()), ")");
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

std::vector<std::string>
registeredPolicyNames()
{
    ensureBuiltins();
    std::vector<std::string> names;
    names.reserve(policyMap().size());
    for (const auto &[name, factory] : policyMap())
        names.push_back(name);
    return names;
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

bool
registerDesignPoint(const std::string &name, DesignSpec spec)
{
    ensureBuiltins();
    bool replaced = designMap().count(name) > 0;
    designMap()[name] = std::move(spec);
    return replaced;
}

SystemConfig
composeDesign(SystemConfig base, const std::string &name)
{
    ensureBuiltins();
    auto it = designMap().find(name);
    if (it == designMap().end())
        fatal("unknown design point '", name, "' (registered: ",
              knownNames(designMap()), ")");
    const DesignSpec &spec = it->second;
    base.sched.policyName = spec.schedPolicy;
    base.sched.workStealing = spec.workStealing;
    base.traveller.style = spec.cache;
    base.lb.enabled = spec.lb;
    base.lb.migration.enabled = spec.lb && spec.migrate;
    if (base.sched.autoAlpha)
        base.sched.hybridAlpha = base.meshDiameter() / 2.0;
    return base;
}

SystemConfig
applyDesign(SystemConfig base, Design d)
{
    return composeDesign(std::move(base), designName(d));
}

std::vector<std::string>
registeredDesignPoints()
{
    ensureBuiltins();
    std::vector<std::string> names;
    names.reserve(designMap().size());
    for (const auto &[name, spec] : designMap())
        names.push_back(name);
    return names;
}

} // namespace abndp

/**
 * @file
 * Experiment driver: runs one (design, workload) pair and returns the
 * metrics every benchmark harness consumes. This is the top-level entry
 * point of the public API (see examples/quickstart.cc).
 */

#ifndef ABNDP_DRIVER_EXPERIMENT_HH
#define ABNDP_DRIVER_EXPERIMENT_HH

#include <optional>
#include <string>

#include "common/config.hh"
#include "core/metrics.hh"
#include "workloads/factory.hh"

namespace abndp
{

/** Options for one experiment run. */
struct ExperimentOptions
{
    /** Check workload results against the sequential reference. */
    bool verify = true;
    /** fatal() if verification fails (otherwise warn). */
    bool fatalOnVerifyFailure = true;
    /**
     * Override the data-cache style after applyDesign() (the Figure-13
     * comparison swaps the Traveller Cache for its alternatives while
     * keeping the O scheduling policy).
     */
    std::optional<CacheStyle> cacheStyle;
    /**
     * Override the fault-injection configuration after applyDesign()
     * (bench_resilience sweeps fault points over a shared base config).
     * The host-only design H models no NDP hardware and ignores it.
     */
    std::optional<FaultConfig> fault;
};

/**
 * Run @p spec under design @p d on top of @p base (Table-1 defaults plus
 * any sweeps applied by the caller). @p base is adjusted per Table 2 via
 * applyDesign() internally.
 */
RunMetrics runExperiment(const SystemConfig &base, Design d,
                         const WorkloadSpec &spec,
                         const ExperimentOptions &opts = {});

/**
 * designName() restricted to identifier characters ("HLB-mig" becomes
 * "HLB_mig"): gtest parameterized-test labels and similar contexts
 * reject '-'.
 */
std::string designToken(Design d);

} // namespace abndp

#endif // ABNDP_DRIVER_EXPERIMENT_HH

/**
 * @file
 * Online-serving configuration: the knobs of the open-loop request
 * stream the serving driver (src/serve, NdpSystem::serve()) injects
 * into the scheduler — arrival rate and rate profile, Zipfian key
 * skew, multi-tenant mix, the tail-latency SLO, and admission control.
 *
 * Serving is off by default (requests == 0); a batch run never reads
 * any field here, and the arrival stream draws from its own seed
 * domain, so enabling serving can never perturb batch-mode goldens.
 */

#ifndef ABNDP_SERVE_SERVING_CONFIG_HH
#define ABNDP_SERVE_SERVING_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/name_table.hh"

namespace abndp
{

/** Shape of the open-loop arrival rate over time. */
enum class RateProfile
{
    /** Stationary Poisson stream at ratePerUs. */
    Constant,
    /** Square wave: burstFraction of each period at burstFactor x. */
    Bursty,
    /** Sinusoidal modulation with diurnalDepth around the mean. */
    Diurnal,
};

/** The rate profiles' names (common/name_table.hh). */
EnumNames<RateProfile> nameTable(RateProfile);

/** Open-loop request-stream parameters (see docs/ARCHITECTURE.md). */
struct ServingConfig
{
    /** Requests in the stream; 0 disables serving mode entirely. */
    std::uint64_t requests = 0;
    /** Mean arrival rate in requests per microsecond (open loop). */
    double ratePerUs = 4.0;
    RateProfile profile = RateProfile::Constant;
    /** Bursty: peak/mean rate multiplier during the burst phase. */
    double burstFactor = 4.0;
    /** Bursty: fraction of each period spent in the burst phase. */
    double burstFraction = 0.1;
    /** Bursty: square-wave period in microseconds. */
    double burstPeriodUs = 50.0;
    /** Diurnal: one full rate cycle in microseconds. */
    double diurnalPeriodUs = 200.0;
    /** Diurnal: modulation depth in [0, 1). */
    double diurnalDepth = 0.8;
    /** Zipfian skew exponent over the key space (0 = uniform). */
    double zipfS = 0.99;
    /** Independent tenants sharing the machine (stats per tenant). */
    std::uint32_t tenants = 1;
    /**
     * Relative arrival weight per tenant; empty means equal shares.
     * When nonempty it must have exactly @ref tenants entries, each
     * positive (weights are normalized internally).
     */
    std::vector<double> tenantWeights;
    /** Tail-latency SLO per request, in nanoseconds. */
    double sloNs = 4000.0;
    /**
     * Admission control: arrivals beyond this many outstanding
     * requests are rejected (counted, never queued). 0 = unbounded.
     */
    std::uint64_t maxOutstanding = 4096;

    /** Serving mode is requested iff the stream is nonempty. */
    bool enabled() const { return requests > 0; }
};

} // namespace abndp

#endif // ABNDP_SERVE_SERVING_CONFIG_HH

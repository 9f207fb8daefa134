/**
 * @file
 * Seeded configuration fuzzer (the third leg of the correctness
 * harness; see docs/TESTING.md): samples valid SystemConfigs from a
 * seeded Rng, runs each under every NDP design of Table 2 with the
 * machine invariant checkers armed, and verifies workload results plus
 * metamorphic relations (identical metrics across repeated runs and
 * across --threads; design-invariant task/epoch counts). On failure it
 * emits a replayable, greedily minimized repro as flat JSON.
 *
 * Everything here is host tooling (tools/fuzz_configs.cc, CI nightly
 * job): nothing links back into simulator timing.
 */

#ifndef ABNDP_CHECK_CONFIG_FUZZ_HH
#define ABNDP_CHECK_CONFIG_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/config.hh"
#include "common/rng.hh"

namespace abndp
{
namespace check
{

/** One fuzz case: a sampled machine and the workload to run on it. */
struct FuzzCase
{
    SystemConfig cfg;
    /** Workload name, run at WorkloadSpec::tiny() scale. */
    std::string workload = "pr";
};

/** Outcome of one fuzz case. */
struct FuzzReport
{
    bool ok = true;
    /** Human-readable description of the first divergence. */
    std::string message;
};

/**
 * Smallest machine every fuzz knob minimizes towards (1 stack, 2
 * units, tiny memories); also the implicit default of repro JSON keys
 * that are absent.
 */
SystemConfig minimalFuzzBaseline();

/**
 * Draw a configuration + workload from @p rng that is valid under
 * every NDP design. Validity is by construction (e.g. the camp-group
 * count is drawn from the divisors of the sampled unit count);
 * checkInvariants is set on every sample.
 */
FuzzCase sampleFuzzCase(Rng &rng);

/**
 * Why runFuzzCase() cannot build @p cfg: "design <name>: <message>"
 * for the first NDP design under which it breaks a
 * SystemConfig::validationError() rule, or "" when every design is
 * valid. Never exits, so the minimizer can probe invalid candidates.
 */
std::string fuzzConfigError(const SystemConfig &cfg);

/**
 * Run @p c under every NDP design with checkers armed: workload
 * verification, run-to-run determinism, thread-count independence
 * (sequential vs a runCells pool of @p threads), and design-invariant
 * task/epoch counts.
 */
FuzzReport runFuzzCase(const FuzzCase &c, std::uint32_t threads);

/** Serialize a fuzz case as flat dotted-key JSON (replayable). */
std::string fuzzCaseToJson(const FuzzCase &c);

/** Parse JSON produced by fuzzCaseToJson(); fatal() on bad input. */
FuzzCase fuzzCaseFromJson(const std::string &json);

/**
 * Greedy minimization: walk every knob and try resetting it to the
 * minimal baseline; keep each reset for which @p stillFails holds
 * (invalid intermediate configs are skipped, not run). The predicate
 * receives only candidates whose fuzzConfigError() is empty.
 */
SystemConfig
minimizeConfig(const SystemConfig &failing,
               const std::function<bool(const SystemConfig &)> &stillFails);

} // namespace check
} // namespace abndp

#endif // ABNDP_CHECK_CONFIG_FUZZ_HH

/**
 * @file
 * Seeded configuration fuzzer front end (src/check/config_fuzz.hh).
 *
 * Samples valid SystemConfigs from a seeded Rng and runs each under
 * every Table-2 NDP design with the machine invariant checkers armed,
 * checking workload verification plus the metamorphic relations
 * (run-to-run and thread-count determinism, design-invariant
 * task/epoch counts). The first failing case is greedily minimized
 * and written as replayable JSON plus a full stats dump.
 *
 * Usage: fuzz_configs [--count=N] [--seed=S] [--threads=T]
 *                     [--time-box-s=S] [--repro-out=FILE]
 *                     [--replay=FILE] [--verbose]
 *
 * Exit status: 0 = all cases clean, 1 = a violation was found (or a
 * replayed repro still fails). Invariant violations detected *inside*
 * a run panic() with a full diagnostic instead of returning, so a
 * crash is also a failure signal for CI.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/config_fuzz.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/ndp_system.hh"
#include "driver/cell_runner.hh"
#include "driver/run_flags.hh"
#include "workloads/factory.hh"

using namespace abndp;

namespace
{

/** Re-run the minimized case once under O and dump the full registry. */
void
dumpStats(const check::FuzzCase &c, const std::string &path)
{
    SystemConfig cfg = applyDesign(c.cfg, Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny(c.workload));
    sys.run(*wl);
    std::ofstream ofs(path);
    if (!ofs)
        fatal("cannot open stats dump file '", path, "'");
    sys.statsRegistry().dump(ofs);
}

/** Minimize, write the repro artifacts, and report the failure. */
int
reportFailure(const check::FuzzCase &c, const check::FuzzReport &rep,
              std::uint32_t threads, const std::string &reproOut)
{
    std::cout << "FAIL: " << rep.message << "\n";
    std::cout << "minimizing (greedy per-knob reset)...\n";
    check::FuzzCase minimized = c;
    minimized.cfg = check::minimizeConfig(
        c.cfg, [&](const SystemConfig &candidate) {
            check::FuzzCase probe;
            probe.cfg = candidate;
            probe.workload = c.workload;
            return !check::runFuzzCase(probe, threads).ok;
        });

    std::ofstream ofs(reproOut);
    if (!ofs)
        fatal("cannot open repro file '", reproOut, "'");
    ofs << check::fuzzCaseToJson(minimized);
    ofs.close();
    dumpStats(minimized, reproOut + ".stats");

    std::cout << "repro written to " << reproOut << " (stats dump: "
              << reproOut << ".stats)\n"
              << "replay with: fuzz_configs --replay=" << reproOut
              << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags(argc, argv);
    const auto count = flags.getUint("count", 25);
    const auto seed = flags.getUint("seed", Rng::defaultSeed);
    const std::uint32_t threads = parseRunFlags(flags).threads;
    const auto timeBoxS = flags.getUint("time-box-s", 0);
    const std::string reproOut =
        flags.getString("repro-out", "fuzz_repro.json");
    const std::string replay = flags.getString("replay", "");
    const bool verbose = flags.getBool("verbose", false);

    if (!replay.empty()) {
        std::ifstream ifs(replay);
        if (!ifs)
            fatal("cannot open repro file '", replay, "'");
        std::ostringstream buf;
        buf << ifs.rdbuf();
        check::FuzzCase c = check::fuzzCaseFromJson(buf.str());
        if (auto e = check::fuzzConfigError(c.cfg); !e.empty())
            fatal("repro config is invalid under ", e);
        std::cout << "replaying " << replay << " (workload "
                  << c.workload << ", " << c.cfg.numUnits()
                  << " units)\n";
        check::FuzzReport rep = check::runFuzzCase(c, threads);
        if (!rep.ok) {
            std::cout << "FAIL: " << rep.message << "\n";
            return 1;
        }
        std::cout << "repro passes: all invariants and metamorphic "
                     "relations hold\n";
        return 0;
    }

    Rng rng(seed);
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t ran = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (timeBoxS > 0) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) >= timeBoxS) {
                std::cout << "time box (" << timeBoxS
                          << " s) reached after " << ran << " cases\n";
                break;
            }
        }
        check::FuzzCase c = check::sampleFuzzCase(rng);
        if (auto e = check::fuzzConfigError(c.cfg); !e.empty())
            panic("sampled case ", i, " is invalid under ", e,
                  " (the sampler must draw valid configs)");
        if (verbose)
            std::cout << "case " << i << ": workload=" << c.workload
                      << " units=" << c.cfg.numUnits()
                      << " groups=" << c.cfg.numGroups()
                      << " seed=" << c.cfg.seed << "\n";
        check::FuzzReport rep = check::runFuzzCase(c, threads);
        ++ran;
        if (!rep.ok)
            return reportFailure(c, rep, threads, reproOut);
    }
    std::cout << "fuzz_configs: " << ran
              << " cases clean (seed=" << seed << ", threads=" << threads
              << ")\n";
    return 0;
}

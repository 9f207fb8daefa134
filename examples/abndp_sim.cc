/**
 * @file
 * abndp_sim — the command-line simulator front end.
 *
 * Runs any workload under any Table-2 design on any system geometry and
 * prints a summary, the stats registry's full dump (--stats), or
 * machine-readable JSON (--json). This is the binary a user scripts
 * sweeps with.
 *
 * Examples:
 *   abndp_sim --workload=pr --design=O --scale=14
 *   abndp_sim --workload=knn --design=Sl --mesh=8 --stats
 *   abndp_sim --workload=gcn --design=O --camps=7 --bypass=0.2 --json
 */

#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "core/stats_report.hh"
#include "driver/experiment.hh"
#include "driver/run_flags.hh"
#include "host/host_system.hh"
#include "workloads/factory.hh"

namespace
{

void
printUsage()
{
    std::cout <<
        "abndp_sim — ABNDP system simulator\n"
        "\n"
        "Workload:   --workload=pr|bfs|sssp|astar|gcn|kmeans|knn|spmv\n"
        "            --scale=N (graph: 2^N vertices) --edge-factor=N\n"
        "            --seed=N (input seed) --max-epochs=N --verify\n"
        "Design:     --design=H|B|Sm|Sl|Sh|C|O|HLB|HLB-mig (Table 2 and\n"
        "              the two load-balancing rows)\n"
        "System:     --mesh=N (NxN stacks) --units-per-stack=N\n"
        "            --cores-per-unit=N --mem-mb=N\n"
        "            --sim-seed=N (simulator seed)\n"
        "Traveller:  --camps=C --ratio=R (cache = 1/R of local DRAM)\n"
        "            --assoc=N --bypass=P --skewed=0|1\n"
        "Scheduler:  --alpha=A (B = A*Dinter) --exchange-interval=CYCLES\n"
        "            --pruned-scoring\n"
        "            --intra-noc=crossbar|ring\n"
        "Inputs:     --graph-file=PATH (SNAP edge list)\n"
        "            --points/--knn-points/--queries/--astar-queries\n"
        "            --explicit-hints (programmer hint.workload)\n"
        "Output:     --stats (full stats-registry dump) --json\n"
        "            --print-config --heatmap\n"
        "            --stats-interval=N (dump deltas every N epochs;\n"
        "              N=1 is the per-epoch log)\n"
        "            --stats-out=FILE (interval dump target)\n"
        "            --trace-out=FILE (Chrome/Perfetto trace JSON)\n"
        "            --trace-buffer-events=N (tracer ring capacity)\n"
        "            (design H takes --json and --print-config only)\n"
        "Memory:     --mem-backend=meter|ddr (timing backend)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    if (flags.has("help")) {
        printUsage();
        return 0;
    }

    WorkloadSpec spec;
    spec.name = flags.getString("workload", "pr");
    spec.scale = flags.getUint32("scale", 13);
    spec.edgeFactor = flags.getUint32("edge-factor", 16);
    spec.seed = flags.getUint("seed", 42);
    spec.graphFile = flags.getString("graph-file", "");
    spec.explicitLoadHints = flags.getBool("explicit-hints", false);
    spec.kmeansPoints = flags.getUint("points", spec.kmeansPoints);
    spec.knnPoints = flags.getUint32("knn-points", spec.knnPoints);
    spec.knnQueries = flags.getUint32("queries", spec.knnQueries);
    spec.astarQueries = flags.getUint32("astar-queries", spec.astarQueries);

    SystemConfig cfg;
    cfg.meshX = cfg.meshY = flags.getUint32("mesh", cfg.meshX);
    cfg.unitsPerStack = flags.getUint32("units-per-stack", cfg.unitsPerStack);
    cfg.coresPerUnit = flags.getUint32("cores-per-unit", cfg.coresPerUnit);
    cfg.memBytesPerUnit =
        flags.getMebibytes("mem-mb", cfg.memBytesPerUnit >> 20);
    auto &trav = cfg.traveller;
    trav.campCount = flags.getUint32("camps", trav.campCount);
    trav.ratioDenom = flags.getUint("ratio", trav.ratioDenom);
    trav.assoc = flags.getUint32("assoc", trav.assoc);
    trav.bypassProb = flags.getDouble("bypass", trav.bypassProb);
    trav.skewedMapping = flags.getBool("skewed", trav.skewedMapping);
    if (flags.has("alpha")) {
        cfg.sched.autoAlpha = false;
        cfg.sched.hybridAlpha =
            flags.getDouble("alpha", cfg.sched.hybridAlpha);
    }
    cfg.sched.exchangeIntervalCycles = flags.getUint(
        "exchange-interval", cfg.sched.exchangeIntervalCycles);
    cfg.net.intraTopology = fromName<IntraTopology>(flags.getString(
        "intra-noc", nameOf(cfg.net.intraTopology)));
    if (flags.getBool("pruned-scoring", false))
        cfg.sched.exhaustiveScoring = false;
    cfg.maxEpochs = flags.getUint("max-epochs", cfg.maxEpochs);
    cfg.seed = flags.getUint("sim-seed", cfg.seed);
    if (flags.has("trace"))
        fatal("--trace (per-epoch CSV) was removed; use "
              "--stats-interval=1 --stats-out=FILE for per-epoch counter "
              "deltas");
    if (flags.has("stats-registry"))
        fatal("--stats-registry was removed; --stats prints the same "
              "registry dump");
    cfg.traceBufferEvents =
        flags.getUint("trace-buffer-events", cfg.traceBufferEvents);
    applyRunFlags(flags, cfg);

    Design design = designFromName(flags.getString("design", "O"));
    cfg = applyDesign(cfg, design);

    const bool verify = flags.getBool("verify", false);
    const bool json = flags.getBool("json", false);
    const bool stats = flags.getBool("stats", false);
    const bool heatmap = flags.getBool("heatmap", false);
    const bool printConfig = flags.getBool("print-config", false);
    flags.rejectUnread();

    // Design H runs the host model, which has no stats registry, heat
    // map, tracer or interval dump: refuse the flags it would drop.
    if (design == Design::H) {
        std::string dropped;
        for (const char *name : {"stats", "heatmap", "trace-out",
                                 "trace-buffer-events", "stats-out",
                                 "stats-interval"})
            if (flags.has(name))
                dropped += (dropped.empty() ? "--" : ", --")
                    + std::string(name);
        if (!dropped.empty())
            fatal("design H (the host model) writes no stats, heat map "
                  "or trace; drop ", dropped);
    }

    if (printConfig) {
        cfg.print(std::cout);
        std::cout << "\n";
    }

    // Inputs are sized by the user: one sized past the host's memory
    // fails in makeWorkload() (R-MAT edges) or in the run's workload
    // setup (an edge list's vertex range), and either is a fatal().
    return fatalIfOutOfMemory(spec.inputName(), [&] {
        auto wl = makeWorkload(spec);
        RunMetrics m;
        if (design == Design::H) {
            HostSystem host(cfg);
            m = host.run(*wl);
            if (verify && !wl->verify())
                fatal("verification failed");
            if (json) {
                dumpJson(std::cout, cfg, m);
                std::cout << "\n";
                return 0;
            }
        } else {
            NdpSystem sys(cfg);
            m = sys.run(*wl);
            if (verify && !wl->verify())
                fatal("verification failed");
            if (json) {
                dumpJson(std::cout, cfg, m);
                std::cout << "\n";
                return 0;
            }
            if (stats)
                sys.statsRegistry().dump(std::cout);
            if (heatmap)
                dumpHeatmap(std::cout, cfg, m);
            if (stats)
                return 0;
        }

        std::cout << spec.name << " under " << designName(design) << ": "
                  << m.tasks << " tasks in " << m.seconds() * 1e3
                  << " ms simulated (" << m.epochs << " epochs), "
                  << m.interHops << " inter-stack hops, "
                  << m.energy.total() / 1e9 << " mJ, utilization "
                  << m.utilization() << ", imbalance x" << m.imbalance()
                  << "; " << m.simEvents << " events in " << m.hostSeconds
                  << " s host (" << m.eventsPerSec() << " events/s)\n";
        return 0;
    });
}

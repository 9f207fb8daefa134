/**
 * @file
 * Batched goal-directed pathfinding on an ABNDP system.
 *
 * A batch of concurrent shortest-path queries runs ALT-A* (A* with
 * landmark heuristics) over a scale-free network. The landmark distance
 * tables are shared, read-only and extremely hot — a showcase for the
 * Traveller Cache — while the per-query wavefronts create bursty load
 * that the hybrid scheduler balances.
 *
 * Usage: pathfinding [--scale=13] [--queries=16]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "core/ndp_system.hh"
#include "workloads/astar.hh"
#include "workloads/graph_gen.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    RmatParams params;
    params.scale = flags.getUint32("scale", 13);
    params.edgeFactor = 16;
    params.undirected = true;
    auto queries = flags.getUint32("queries", 16);
    flags.rejectUnread();

    std::cout << "Batch pathfinding: " << queries
              << " concurrent ALT-A* queries over a 2^" << params.scale
              << "-vertex network\n\n";

    SystemConfig base;
    TextTable table({"system", "sim time (ms)", "hops (M)", "energy (mJ)",
                     "busiest/mean core"});

    std::vector<std::uint32_t> costs;
    for (Design d : {Design::B, Design::Sl, Design::O}) {
        NdpSystem sys(applyDesign(base, d));
        AstarWorkload astar(makeRmatGraph(params), queries, 11);
        RunMetrics m = sys.run(astar);
        if (!astar.verify())
            fatal("A* verification failed");
        if (d == Design::O) {
            costs.clear();
            for (std::uint32_t q = 0; q < astar.numQueriesTotal(); ++q)
                costs.push_back(astar.goalCost(q));
        }
        const char *name = d == Design::B ? "baseline (B)"
            : d == Design::Sl             ? "work stealing (Sl)"
                                          : "ABNDP (O)";
        table.addRow({name, TextTable::fmt(m.seconds() * 1e3),
                      TextTable::fmt(m.interHops / 1e6),
                      TextTable::fmt(m.energy.total() / 1e9),
                      TextTable::fmt(m.imbalance())});
    }
    table.print(std::cout);

    std::cout << "\nPath costs found (hops): ";
    for (std::size_t q = 0; q < costs.size() && q < 12; ++q)
        std::cout << costs[q] << " ";
    std::cout << "\nAll designs return identical exact shortest paths; "
                 "ABNDP just finds them fastest.\n";
    return 0;
}

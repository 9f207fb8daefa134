/**
 * @file
 * Social-network analytics on an ABNDP system.
 *
 * The motivating scenario of the paper: graph analytics over power-law
 * social graphs, where a few celebrity vertices are referenced by huge
 * numbers of tasks. This example builds a synthetic social graph, finds
 * the influencers with Page Rank, measures reachability with BFS, and
 * shows how the baseline NDP system and full ABNDP behave on each.
 *
 * Usage: social_network_analytics [--scale=13] [--edge-factor=16]
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "core/ndp_system.hh"
#include "workloads/bfs.hh"
#include "workloads/graph_gen.hh"
#include "workloads/pagerank.hh"

namespace
{

/** Rank the influencers and measure their reach under B and O. */
int
analyze(const abndp::RmatParams &params)
{
    using namespace abndp;

    std::cout << "Generating a power-law social graph (2^" << params.scale
              << " users)...\n";
    Graph follows = makeRmatGraph(params);
    std::cout << "  " << follows.numVertices() << " users, "
              << follows.numEdges() << " follow edges, max out-degree "
              << follows.maxDegree() << "\n\n";

    SystemConfig base;

    // ---- Influencer ranking via Page Rank ----
    std::cout << "=== Page Rank: who are the influencers? ===\n";
    TextTable prTable({"system", "sim time (ms)", "inter-stack hops",
                       "energy (mJ)", "busiest/mean core"});
    std::vector<double> ranks;
    for (Design d : {Design::B, Design::O}) {
        NdpSystem sys(applyDesign(base, d));
        PageRankWorkload pr(follows, 6);
        RunMetrics m = sys.run(pr);
        if (!pr.verify())
            fatal("Page Rank verification failed");
        if (d == Design::O)
            ranks = pr.ranks();
        prTable.addRow({d == Design::B ? "baseline NDP (B)" : "ABNDP (O)",
                        TextTable::fmt(m.seconds() * 1e3),
                        TextTable::fmt(static_cast<double>(m.interHops),
                                       0),
                        TextTable::fmt(m.energy.total() / 1e9),
                        TextTable::fmt(m.imbalance())});
    }
    prTable.print(std::cout);

    // Top influencers.
    std::vector<std::uint32_t> order(follows.numVertices());
    for (std::uint32_t v = 0; v < order.size(); ++v)
        order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return ranks[a] > ranks[b];
                      });
    std::cout << "\nTop influencers: ";
    for (int i = 0; i < 5; ++i)
        std::cout << "user" << order[i] << " (pr="
                  << TextTable::fmt(ranks[order[i]] * 1000, 3) << "m) ";
    std::cout << "\n\n";

    // ---- Reachability via BFS from the top influencer ----
    std::cout << "=== BFS: how far does user" << order[0]
              << "'s reach extend? ===\n";
    Graph social = makeRmatGraph([&] {
        auto p = params;
        p.undirected = true;
        return p;
    }());
    TextTable bfsTable({"system", "sim time (ms)", "inter-stack hops",
                        "reached users"});
    for (Design d : {Design::B, Design::O}) {
        NdpSystem sys(applyDesign(base, d));
        BfsWorkload bfs(social, order[0]);
        RunMetrics m = sys.run(bfs);
        if (!bfs.verify())
            fatal("BFS verification failed");
        std::uint64_t reached = 0;
        for (std::uint32_t dist : bfs.distances())
            reached += dist != ~0u ? 1 : 0;
        bfsTable.addRow({d == Design::B ? "baseline NDP (B)" : "ABNDP (O)",
                         TextTable::fmt(m.seconds() * 1e3),
                         TextTable::fmt(static_cast<double>(m.interHops),
                                        0),
                         TextTable::fmt(static_cast<std::uint64_t>(
                             reached))});
    }
    bfsTable.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    RmatParams params;
    params.scale = flags.getUint32("scale", 13);
    params.edgeFactor = flags.getUint32("edge-factor", 16);
    params.seed = flags.getUint("seed", 2026);
    params.undirected = false;
    flags.rejectUnread();
    return fatalIfOutOfMemory(
        logging_detail::concat("the R-MAT input at scale ", params.scale,
                               ", edge factor ", params.edgeFactor),
        [&] { return analyze(params); });
}

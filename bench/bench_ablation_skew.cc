/**
 * @file
 * Ablation of the paper's core premise (Section 2.3): the remote-access
 * / load-balance tension comes from *skewed* real-world data. On a
 * uniform-degree graph the baseline has no hotspots, so ABNDP's gain
 * should shrink toward parity; on power-law input it should be large.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/ndp_system.hh"
#include "workloads/graph_gen.hh"
#include "workloads/pagerank.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    opts.flags.rejectUnread();
    printBanner("Ablation — input skew (the premise of Section 2.3)",
                "(extension) power-law inputs create the hotspots ABNDP "
                "fixes; uniform inputs should show little gain");

    TextTable table({"input", "design", "time (ms)", "imbalance",
                     "O speedup"});

    struct Input
    {
        const char *label;
        Graph graph;
    };
    RmatParams rp;
    rp.scale = opts.scale;
    rp.seed = opts.seed;
    rp.undirected = false;
    std::uint32_t n = 1u << opts.scale;
    Input inputs[] = {
        {"power-law (R-MAT)", makeRmatGraph(rp)},
        {"uniform", makeUniformGraph(n, static_cast<std::uint64_t>(n) * 16,
                                     opts.seed, false)},
    };

    for (auto &input : inputs) {
        double bTicks = 0.0;
        for (Design d : {Design::B, Design::O}) {
            NdpSystem sys(applyDesign(opts.base, d));
            PageRankWorkload pr(input.graph, 4);
            RunMetrics m = sys.run(pr);
            if (opts.verify && !pr.verify())
                fatal("skew ablation verification failed");
            if (d == Design::B)
                bTicks = static_cast<double>(m.ticks);
            table.addRow({input.label, designName(d),
                          fmt(m.seconds() * 1e3), fmt(m.imbalance()),
                          d == Design::O ? fmt(bTicks / m.ticks) : "-"});
        }
    }
    table.print(std::cout);
    return 0;
}

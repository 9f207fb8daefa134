/**
 * @file
 * Ablation (beyond the paper): the paper states its design "does not
 * rely on any particular ... interconnect topologies". This bench swaps
 * the intra-stack crossbar for a bidirectional ring and checks that the
 * ABNDP advantages survive the topology change.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    opts.flags.rejectUnread();
    printBanner("Ablation — intra-stack crossbar vs ring NoC",
                "(extension) the O-over-B advantage should persist; the "
                "ring adds intra-stack hops, so absolute times rise");

    TextTable table({"workload", "NoC", "B time (ms)", "O time (ms)",
                     "O speedup", "O hops (k)"});

    for (const auto &wl : {std::string("pr"), std::string("bfs"),
                           std::string("gcn")}) {
        WorkloadSpec spec = specFor(wl, opts);
        for (IntraTopology noc :
             {IntraTopology::Crossbar, IntraTopology::Ring}) {
            SystemConfig cfg = opts.base;
            cfg.net.intraTopology = noc;
            RunMetrics b = runCell(cfg, Design::B, spec, opts.verify);
            RunMetrics o = runCell(cfg, Design::O, spec, opts.verify);
            table.addRow({wl, nameOf(noc),
                          fmt(b.seconds() * 1e3), fmt(o.seconds() * 1e3),
                          fmt(static_cast<double>(b.ticks) / o.ticks),
                          fmt(o.interHops / 1000.0, 1)});
        }
    }
    table.print(std::cout);
    return 0;
}

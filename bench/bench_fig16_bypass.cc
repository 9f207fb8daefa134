/**
 * @file
 * Figure 16 (probabilistic insertion): DRAM and interconnect energy of
 * the full ABNDP design for bypass probabilities 0 .. 0.8, normalized
 * per workload to bypass 0.
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
    printBanner("Figure 16 — insertion bypass probability sweep",
                "more bypassing cuts DRAM-cache insertion energy but "
                "slightly raises hops; insensitive overall, 40% is a "
                "good balance");

    TextTable table({"workload", "bypass", "DRAM", "interconnect",
                     "DRAM+net", "campHit"});

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        double base = 0.0;
        for (double p : {0.0, 0.2, 0.4, 0.6, 0.8}) {
            SystemConfig cfg = opts.base;
            cfg.traveller.bypassProb = p;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            double dram = m.energy.dram();
            double net = m.energy.netPj;
            if (p == 0.0)
                base = dram + net;
            table.addRow({wl, fmt(p, 1), fmt(dram / base),
                          fmt(net / base), fmt((dram + net) / base),
                          fmt(m.campHitRate())});
        }
    }
    table.print(std::cout);
    return 0;
}

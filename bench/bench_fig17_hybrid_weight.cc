/**
 * @file
 * Figure 17 (hybrid scheduling weight): remote-access hops and speedup
 * of the full ABNDP design with B = alpha * Dinter for alpha 0..6
 * (alpha = 3 = half the 4x4 mesh diameter is the paper default).
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
    printBanner("Figure 17 — hybrid weight sweep (alpha = B / Dinter)",
                "hops grow with alpha while performance saturates "
                "around alpha = 3 (= d/2)");

    TextTable table({"workload", "alpha", "hops vs a=0", "speedup vs a=0"});

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        double baseHops = 0.0, baseTicks = 0.0;
        for (double alpha : {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
            SystemConfig cfg = opts.base;
            cfg.sched.autoAlpha = false;
            cfg.sched.hybridAlpha = alpha;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            if (alpha == 0.0) {
                baseHops = static_cast<double>(m.interHops);
                baseTicks = static_cast<double>(m.ticks);
            }
            table.addRow({wl, fmt(alpha, 0),
                          fmt(baseHops > 0 ? m.interHops / baseHops : 0.0),
                          fmt(baseTicks / m.ticks)});
        }
    }
    table.print(std::cout);
    return 0;
}

/**
 * @file
 * Ablation (beyond the paper): exhaustive unit scoring — the paper's
 * scheduler scores every NDP unit — versus a pruned candidate set (the
 * creating unit, the home, the camp candidates of a few hint addresses,
 * and the most idle units). A hardware scheduler would prefer the pruned
 * set; this bench quantifies what it gives up.
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
    printBanner("Ablation — exhaustive vs pruned scheduler scoring",
                "(extension, not in the paper) pruned scoring should be "
                "nearly equivalent: camp candidates + idle units cover "
                "the useful targets");

    TextTable table({"workload", "mode", "time (ms)", "hops (k)",
                     "forwards", "speedup vs exhaustive"});

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        double baseTicks = 0.0;
        for (bool exhaustive : {true, false}) {
            SystemConfig cfg = opts.base;
            cfg.sched.exhaustiveScoring = exhaustive;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            if (exhaustive)
                baseTicks = static_cast<double>(m.ticks);
            table.addRow({wl, exhaustive ? "exhaustive" : "pruned",
                          fmt(m.seconds() * 1e3),
                          fmt(m.interHops / 1000.0, 1),
                          TextTable::fmt(m.forwardedTasks),
                          fmt(baseTicks / m.ticks)});
        }
    }
    table.print(std::cout);
    return 0;
}

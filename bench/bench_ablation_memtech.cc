/**
 * @file
 * Ablation (beyond the paper's figures, but claimed in Section 3.2):
 * "the hardware architecture does not rely on any particular memory
 * technologies" — swap the HBM-like channel for an HMC-like vault and
 * check the ABNDP advantage persists.
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
    printBanner("Ablation — HBM-like vs HMC-like DRAM organization",
                "(extension) O-over-B speedup should persist across "
                "memory technologies");

    TextTable table({"workload", "DRAM", "B time (ms)", "O time (ms)",
                     "O speedup"});

    struct Tech
    {
        const char *label;
        DramConfig cfg;
    };
    const Tech techs[] = {{"HBM-like", DramConfig::hbm()},
                          {"HMC-like", DramConfig::hmc()}};

    for (const auto &wl : {std::string("pr"), std::string("gcn"),
                           std::string("spmv")}) {
        WorkloadSpec spec = specFor(wl, opts);
        for (const auto &tech : techs) {
            SystemConfig cfg = opts.base;
            cfg.dram = tech.cfg;
            RunMetrics b = runCell(cfg, Design::B, spec, opts.verify);
            RunMetrics o = runCell(cfg, Design::O, spec, opts.verify);
            table.addRow({wl, tech.label, fmt(b.seconds() * 1e3),
                          fmt(o.seconds() * 1e3),
                          fmt(static_cast<double>(b.ticks) / o.ticks)});
        }
    }
    table.print(std::cout);
    return 0;
}

/**
 * @file
 * Figure 18 (workload exchange interval): speedup of the full ABNDP
 * design with exchange intervals 25k .. 800k cycles, normalized per
 * workload to the 25k-cycle interval.
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
    printBanner("Figure 18 — workload exchange interval sweep",
                "the interval can be made quite large without hurting "
                "performance, so the exchange cost is negligible");

    TextTable table([&] {
        std::vector<std::string> header{"workload"};
        for (std::uint64_t i :
             {25000u, 50000u, 100000u, 200000u, 400000u, 800000u})
            header.push_back(std::to_string(i / 1000) + "k");
        return header;
    }());

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        std::vector<std::string> cells{wl};
        double base = 0.0;
        for (std::uint64_t interval :
             {25000u, 50000u, 100000u, 200000u, 400000u, 800000u}) {
            SystemConfig cfg = opts.base;
            cfg.sched.exchangeIntervalCycles = interval;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            if (interval == 25000)
                base = static_cast<double>(m.ticks);
            cells.push_back(fmt(base / m.ticks));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    return 0;
}

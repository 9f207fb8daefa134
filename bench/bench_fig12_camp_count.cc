/**
 * @file
 * Figure 12 (camp-location count): DRAM and interconnect energy of the
 * full ABNDP design for C in {1, 3, 7, 15}, normalized per workload to
 * C = 1.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    readThreads(opts);
    opts.flags.rejectUnread();
    printBanner("Figure 12 — camp count C sweep (DRAM + net energy)",
                "impact is minor: more camps cut interconnect energy "
                "but add DRAM-cache insertions; C = 3 is a good choice");

    TextTable table({"workload", "C", "DRAM", "interconnect",
                     "DRAM+net"});

    std::vector<CellSpec> grid;
    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        for (std::uint32_t c : {1u, 3u, 7u, 15u}) {
            CellSpec cell = cellFor(Design::O, spec, opts);
            cell.config = opts.base;
            cell.config->traveller.campCount = c;
            grid.push_back(cell);
        }
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::size_t cellIdx = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        double base = 0.0;
        for (std::uint32_t c : {1u, 3u, 7u, 15u}) {
            const RunMetrics &m = results[cellIdx++];
            double dram = m.energy.dram();
            double net = m.energy.netPj;
            if (c == 1)
                base = dram + net;
            table.addRow({wl, std::to_string(c), fmt(dram / base),
                          fmt(net / base), fmt((dram + net) / base)});
        }
    }
    table.print(std::cout);
    return 0;
}

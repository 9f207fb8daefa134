/**
 * @file
 * Figure 7 (energy): total energy of every NDP design normalized to B,
 * broken into the paper's four components — cores + SRAM, DRAM (memory
 * + cache), interconnect, static.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    readThreads(opts);
    opts.flags.rejectUnread();
    printBanner("Figure 7 — energy breakdown (normalized to B)",
                "O consumes the least energy: 24.6% avg / 40.1% max "
                "reduction; interconnect energy tracks hop counts; DRAM "
                "energy rises slightly with Traveller insertions");

    const auto &workloads = allWorkloadNames();
    const auto &designs = ndpDesigns();

    TextTable table({"workload", "design", "core+SRAM", "DRAM(mem)",
                     "DRAM(cache)", "interconnect", "static", "total"});

    std::vector<CellSpec> grid;
    for (const auto &wl : workloads) {
        WorkloadSpec spec = specFor(wl, opts);
        for (Design d : designs)
            grid.push_back(cellFor(d, spec, opts));
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::vector<double> oReduction;
    std::size_t cell = 0;
    for (const auto &wl : workloads) {
        double baseTotal = 0.0;
        for (Design d : designs) {
            const RunMetrics &m = results[cell++];
            const auto &e = m.energy;
            if (d == Design::B)
                baseTotal = e.total();
            table.addRow({wl, designName(d),
                          fmt(e.coreSramPj / baseTotal),
                          fmt(e.dramMemPj / baseTotal),
                          fmt(e.dramCachePj / baseTotal),
                          fmt(e.netPj / baseTotal),
                          fmt(e.staticPj / baseTotal),
                          fmt(e.total() / baseTotal)});
            if (d == Design::O)
                oReduction.push_back(e.total() / baseTotal);
        }
    }
    table.print(std::cout);

    double avg = geomean(oReduction);
    double best = 1.0;
    for (double r : oReduction)
        best = std::min(best, r);
    std::cout << "\nO vs B energy: geomean " << fmt((1.0 - avg) * 100, 1)
              << "% reduction (paper: 24.6%), best "
              << fmt((1.0 - best) * 100, 1) << "% (paper: 40.1%)\n";
    return 0;
}

/**
 * @file
 * Figure 6 (overall performance): speedup of every Table-2 design over
 * the baseline B on all eight workloads, plus the geomean and the
 * H-relative ratios reported in Section 7.1.
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
    printBanner("Figure 6 — overall speedup (normalized to B)",
                "O: 1.68x avg / 2.19x max; Sh ~1.23x; Sl ~1.14x; Sm "
                "~0.86x; B = 3.70x over host H, O = 6.29x over H");

    const auto &workloads = allWorkloadNames();
    const auto &designs = allDesigns();

    TextTable table([&] {
        std::vector<std::string> header{"workload"};
        for (Design d : designs)
            header.push_back(designName(d));
        return header;
    }());

    std::vector<CellSpec> grid;
    for (const auto &wl : workloads) {
        WorkloadSpec spec = specFor(wl, opts);
        for (Design d : designs)
            grid.push_back(cellFor(d, spec, opts));
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::map<Design, std::vector<double>> speedups;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const RunMetrics *row = &results[w * designs.size()];
        std::map<Design, RunMetrics> byDesign;
        for (std::size_t i = 0; i < designs.size(); ++i)
            byDesign[designs[i]] = row[i];
        double baseTicks =
            static_cast<double>(byDesign[Design::B].ticks);
        std::vector<std::string> cells{workloads[w]};
        for (Design d : designs) {
            double s = baseTicks / byDesign[d].ticks;
            speedups[d].push_back(s);
            cells.push_back(fmt(s));
        }
        table.addRow(cells);
    }

    std::vector<std::string> geo{"geomean"};
    for (Design d : designs)
        geo.push_back(fmt(geomean(speedups[d])));
    table.addRow(geo);
    table.print(std::cout);

    double bOverH = geomean(speedups[Design::B]) == 0.0
        ? 0.0
        : 1.0 / geomean(speedups[Design::H]);
    double oOverH = geomean(speedups[Design::O]) * bOverH;
    std::cout << "\nB over host H (geomean): " << fmt(bOverH)
              << "x (paper: 3.70x)\n";
    std::cout << "O over host H (geomean): " << fmt(oOverH)
              << "x (paper: 6.29x)\n";
    std::cout << "O over B (geomean):      "
              << fmt(geomean(speedups[Design::O]))
              << "x (paper: 1.68x avg, 2.19x max)\n";
    return 0;
}

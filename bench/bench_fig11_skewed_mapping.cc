/**
 * @file
 * Figure 11 (camp-location mapping): remote-access hops of the full
 * ABNDP design with skewed vs identical camp unit mappings.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    printBanner("Figure 11 — skewed vs identical camp mappings (hops)",
                "skewed mapping saves ~12% remote-access hops on "
                "average (fewer conflicts + closer multi-data tasks)");

    // Mapping conflicts only matter under cache pressure (the paper's
    // datasets dwarf the cache); shrink per-unit DRAM accordingly.
    opts.base.memBytesPerUnit = opts.flags.getMebibytes("mem-mb", 2);
    opts.base.traveller.ratioDenom =
        opts.flags.getUint("ratio", 64);
    std::cout << "(per-unit DRAM "
              << (opts.base.memBytesPerUnit >> 20) << "MB, cache 1/"
              << opts.base.traveller.ratioDenom << ")\n\n";

    TextTable table({"workload", "identical(k)", "skewed(k)",
                     "skewed/identical"});

    std::vector<CellSpec> grid;
    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        for (bool skewed : {false, true}) {
            CellSpec cell = cellFor(Design::O, spec, opts);
            cell.config = opts.base;
            cell.config->traveller.skewedMapping = skewed;
            grid.push_back(cell);
        }
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::vector<double> ratios;
    std::size_t cellIdx = 0;
    for (const auto &wl : representativeWorkloadNames()) {
        RunMetrics mi = results[cellIdx++];
        RunMetrics ms = results[cellIdx++];

        double ratio = mi.interHops > 0
            ? static_cast<double>(ms.interHops) / mi.interHops
            : 0.0;
        ratios.push_back(ratio);
        table.addRow({wl, fmt(mi.interHops / 1000.0, 1),
                      fmt(ms.interHops / 1000.0, 1), fmt(ratio)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean skewed/identical hops: "
              << fmt(geomean(ratios)) << " (paper: ~0.88)\n";
    return 0;
}

/**
 * @file
 * Figure 15 (associativity): remote-access hops of the full ABNDP
 * design with Traveller Cache associativity 1..16, normalized per
 * workload to 1-way.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    printBanner("Figure 15 — Traveller associativity sweep (hops)",
                "4-way is sufficient: accesses are spread over many "
                "units, so higher associativity buys little");

    // See bench_fig14: shrink per-unit DRAM so the fixed-capacity cache
    // faces the paper's level of pressure.
    opts.base.memBytesPerUnit = opts.flags.getMebibytes("mem-mb", 2);
    opts.base.traveller.ratioDenom =
        opts.flags.getUint("ratio", 64);
    std::cout << "(per-unit DRAM "
              << (opts.base.memBytesPerUnit >> 20) << "MB, cache 1/"
              << opts.base.traveller.ratioDenom << ")\n\n";

    TextTable table([&] {
        std::vector<std::string> header{"workload"};
        for (std::uint32_t a : {1u, 2u, 4u, 8u, 16u})
            header.push_back(std::to_string(a) + "-way");
        return header;
    }());

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        std::vector<std::string> cells{wl};
        double base = 0.0;
        for (std::uint32_t a : {1u, 2u, 4u, 8u, 16u}) {
            SystemConfig cfg = opts.base;
            cfg.traveller.assoc = a;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            if (a == 1)
                base = static_cast<double>(m.interHops);
            cells.push_back(fmt(base > 0 ? m.interHops / base : 0.0));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    return 0;
}

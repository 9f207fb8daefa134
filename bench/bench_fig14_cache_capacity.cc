/**
 * @file
 * Figure 14 (cache capacity): remote-access hops of the full ABNDP
 * design with the Traveller Cache sized at 1/512 .. 1/16 of local DRAM,
 * normalized per workload to the smallest capacity.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    printBanner("Figure 14 — Traveller capacity sweep (hops)",
                "larger caches keep more data and cut remote accesses, "
                "with diminishing returns beyond 1/64");

    // The paper's datasets are orders of magnitude larger than this
    // repo's default synthetic inputs, so per-unit DRAM is shrunk here
    // to keep the cache-to-working-set ratio in the paper's regime
    // (capacity ratios 1/R are unchanged from Table 1).
    opts.base.memBytesPerUnit = opts.flags.getMebibytes("mem-mb", 2);
    std::cout << "(per-unit DRAM scaled to "
              << (opts.base.memBytesPerUnit >> 20)
              << "MB so the 1/R ratios face real pressure)\n\n";

    TextTable table([&] {
        std::vector<std::string> header{"workload"};
        for (std::uint64_t r : {512u, 256u, 128u, 64u, 32u, 16u})
            header.push_back("1/" + std::to_string(r));
        return header;
    }());

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        std::vector<std::string> cells{wl};
        double base = 0.0;
        for (std::uint64_t r : {512u, 256u, 128u, 64u, 32u, 16u}) {
            SystemConfig cfg = opts.base;
            cfg.traveller.ratioDenom = r;
            RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
            if (r == 512)
                base = static_cast<double>(m.interHops);
            cells.push_back(fmt(base > 0 ? m.interHops / base : 0.0));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    return 0;
}

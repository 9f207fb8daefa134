/**
 * @file
 * Figure 9 (load distribution): active processing cycles of all NDP
 * cores, sorted ascending, per design — printed as deciles of the
 * normalized curve the paper plots.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    opts.flags.rejectUnread();
    printBanner("Figure 9 — per-core active-cycle distribution",
                "B/Sm curves are steep (hotspots); Sl/Sh/O flatten the "
                "curve; Sm overlaps B on gcn; knn most imbalanced");

    const auto &workloads = representativeWorkloadNames();
    const auto &designs = ndpDesigns();

    for (const auto &wl : workloads) {
        WorkloadSpec spec = specFor(wl, opts);
        std::cout << "--- " << wl
                  << " (cycles normalized to the design mean; sorted "
                     "core percentiles) ---\n";
        TextTable table({"design", "p0", "p25", "p50", "p75", "p90",
                         "p100", "max/mean"});
        for (Design d : designs) {
            RunMetrics m = runCell(opts.base, d, spec, opts.verify);
            std::vector<double> cycles;
            for (Tick t : m.coreActiveTicks)
                cycles.push_back(static_cast<double>(t));
            std::sort(cycles.begin(), cycles.end());
            double mean = m.meanCoreActive();
            auto pct = [&](double p) {
                double v = cycles[static_cast<std::size_t>(
                    p * (cycles.size() - 1))];
                return mean > 0 ? v / mean : 0.0;
            };
            table.addRow({designName(d), fmt(pct(0.0)), fmt(pct(0.25)),
                          fmt(pct(0.5)), fmt(pct(0.75)), fmt(pct(0.9)),
                          fmt(pct(1.0)), fmt(m.imbalance())});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    return 0;
}

/**
 * @file
 * Figure 13 (cache implementation styles): the Traveller Cache (DRAM
 * data + SRAM tags) against a pure on-chip SRAM data cache and a DRAM
 * cache with in-DRAM tags, all with hybrid scheduling and the same data
 * capacity. Reports speedup and dynamic DRAM energy plus the area
 * argument of Section 7.2.
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
    printBanner("Figure 13 — Traveller vs SRAM-data vs in-DRAM-tag cache",
                "SRAM cache ~15% faster / 23% less energy but needs an "
                "unrealistic 16.12mm2 per unit; in-DRAM tags cost ~21% "
                "slowdown and ~54% more energy; Traveller needs 0.32mm2");

    struct Style
    {
        const char *label;
        CacheStyle style;
    };
    const Style styles[] = {
        {"Traveller", CacheStyle::TravellerSramTags},
        {"SRAM data", CacheStyle::SramData},
        {"DRAM tags", CacheStyle::DramTags},
    };

    TextTable table({"workload", "style", "speedup vs Traveller",
                     "dyn. DRAM energy vs Traveller"});

    for (const auto &wl : representativeWorkloadNames()) {
        WorkloadSpec spec = specFor(wl, opts);
        double baseTicks = 0.0, baseDram = 0.0;
        for (const auto &s : styles) {
            ExperimentOptions eopts;
            eopts.verify = opts.verify;
            eopts.cacheStyle = s.style;
            RunMetrics m =
                runExperiment(opts.base, Design::O, spec, eopts);
            if (s.style == CacheStyle::TravellerSramTags) {
                baseTicks = static_cast<double>(m.ticks);
                baseDram = m.energy.dram();
            }
            table.addRow({wl, s.label, fmt(baseTicks / m.ticks),
                          fmt(baseDram > 0 ? m.energy.dram() / baseDram
                                           : 0.0)});
        }
    }
    table.print(std::cout);

    std::cout << "\nArea accounting (per NDP unit, CACTI-class):\n"
              << "  8MB SRAM data cache : ~16.12 mm^2 (impractical)\n"
              << "  Traveller tag SRAM  : ~0.32 mm^2 (160 kB tags)\n";
    return 0;
}

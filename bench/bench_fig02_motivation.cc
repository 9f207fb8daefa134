/**
 * @file
 * Figure 2 (motivation): effects of lowest-distance mapping (LDM = Sm)
 * and work-stealing scheduling (WS = Sl) on remote accesses (total
 * interconnect hops) and load imbalance (execution-cycle distribution
 * across NDP units), running Page Rank.
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
    printBanner("Figure 2 — the remote-access / load-balance tradeoff",
                "LDM cuts hops but the busiest unit slows ~1.43x; WS "
                "balances load but raises hop counts");

    WorkloadSpec spec = specFor("pr", opts);

    TextTable hops({"design", "interconnect hops", "vs BASE"});
    TextTable cycles({"design", "min(Mcyc)", "p25", "median", "p75",
                      "max", "max/median"});

    double baseHops = 0.0;
    struct Row
    {
        const char *label;
        Design d;
    };
    for (auto [label, d] : {Row{"BASE", Design::B}, Row{"LDM", Design::Sm},
                            Row{"WS", Design::Sl}}) {
        RunMetrics m = runCell(opts.base, d, spec, opts.verify);
        if (d == Design::B)
            baseHops = static_cast<double>(m.interHops);
        hops.addRow({label, fmt(static_cast<double>(m.interHops), 0),
                     fmt(m.interHops / baseHops)});

        // Per-unit execution cycles = busiest core per unit in cycles.
        auto cfg = applyDesign(opts.base, d);
        std::vector<double> unitCycles;
        for (std::size_t u = 0; u < m.coreActiveTicks.size();
             u += cfg.coresPerUnit) {
            Tick busy = 0;
            for (std::uint32_t c = 0; c < cfg.coresPerUnit; ++c)
                busy += m.coreActiveTicks[u + c];
            unitCycles.push_back(static_cast<double>(busy)
                                 / cfg.ticksPerCycle() / 1e6);
        }
        std::sort(unitCycles.begin(), unitCycles.end());
        auto pct = [&](double p) {
            return unitCycles[static_cast<std::size_t>(
                p * (unitCycles.size() - 1))];
        };
        cycles.addRow({label, fmt(pct(0.0)), fmt(pct(0.25)),
                       fmt(pct(0.5)), fmt(pct(0.75)), fmt(pct(1.0)),
                       fmt(pct(0.5) > 0 ? pct(1.0) / pct(0.5) : 0.0)});
    }

    std::cout << "Remote accesses (Page Rank):\n";
    hops.print(std::cout);
    std::cout << "\nExecution cycles across NDP units (box-plot data):\n";
    cycles.print(std::cout);
    return 0;
}

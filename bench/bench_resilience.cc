/**
 * @file
 * Resilience benchmark (robustness extension, not a paper figure): every
 * Table-2 NDP design under injected hardware skew — straggler units at a
 * range of count x derating points, plus optional link faults and DRAM
 * ECC retries (--link-faults / --drop-prob / --ecc-prob).
 *
 * The no-fault row reproduces the design_matrix shape (O fastest, Sl/Sh
 * above B, Sm/C below B); the faulted rows show how gracefully each
 * scheduling policy degrades. Load-aware policies (Sl, Sh, O) see the
 * derated units through the workload-exchange snapshot and steer tasks
 * away; locality-only placement (B, Sm, C) keeps feeding the slow units
 * and degrades roughly with 1/derate.
 */

#include <iostream>

#include "bench_common.hh"

namespace
{

/** One fault point of the sweep. */
struct FaultPoint
{
    std::string label;
    abndp::FaultConfig fault;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    const auto linkFaults = opts.flags.getUint32("link-faults", 0);
    const double dropProb = opts.flags.getDouble("drop-prob", 0.05);
    const double eccProb = opts.flags.getDouble("ecc-prob", 0.0);
    readThreads(opts);
    opts.flags.rejectUnread();

    printBanner("Resilience — time vs. injected stragglers (ms, and "
                "slowdown vs. each design's own no-fault run)",
                "not a paper artifact; expectation: load-aware designs "
                "(Sl, Sh, O) degrade gracefully, locality-only placement "
                "(B, Sm, C) degrades ~1/derate");

    std::vector<FaultPoint> points;
    points.push_back({"none", {}});
    auto stragglers = [](std::uint32_t count, double derate) {
        FaultConfig f;
        f.straggler.count = count;
        f.straggler.computeDerate = derate;
        f.straggler.bandwidthDerate = derate;
        return f;
    };
    points.push_back({"8 units @ 0.50x", stragglers(8, 0.5)});
    points.push_back({"8 units @ 0.25x", stragglers(8, 0.25)});
    points.push_back({"24 units @ 0.50x", stragglers(24, 0.5)});
    for (auto &p : points) {
        p.fault.link.count = linkFaults;
        p.fault.link.dropProb = linkFaults ? dropProb : 0.0;
        p.fault.dram.eccRetryProb = eccProb;
        if (linkFaults || eccProb > 0.0)
            p.label += " +net/dram";
    }

    const auto &designs = ndpDesigns();
    WorkloadSpec spec = specFor("pr", opts);

    TextTable table({"faults", "design", "time_ms", "slowdown",
                     "vs_B", "hops", "netRetries", "eccRetries",
                     "imbalance", "util"});

    std::vector<CellSpec> grid;
    for (const auto &point : points) {
        for (Design d : designs) {
            CellSpec cell;
            cell.design = d;
            cell.workload = spec;
            cell.opts.verify = opts.verify;
            cell.opts.fault = point.fault;
            grid.push_back(cell);
        }
    }
    std::vector<RunMetrics> results = runGrid(opts, grid);

    std::vector<double> cleanMs(designs.size(), 0.0);
    std::size_t cellIdx = 0;
    for (const auto &point : points) {
        double baseMs = 0.0;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            Design d = designs[i];
            const RunMetrics &m = results[cellIdx++];
            const double ms = m.seconds() * 1e3;
            if (d == Design::B)
                baseMs = ms;
            if (point.label == points.front().label)
                cleanMs[i] = ms;
            table.addRow({point.label, designName(d), fmt(ms),
                          fmt(cleanMs[i] > 0 ? ms / cleanMs[i] : 0.0),
                          fmt(baseMs > 0 ? ms / baseMs : 0.0),
                          std::to_string(m.interHops),
                          std::to_string(m.netRetries),
                          std::to_string(m.dramEccRetries),
                          fmt(m.imbalance()), fmt(m.utilization())});
        }
    }
    table.print(std::cout);
    std::cout << "\nslowdown = time / the same design's no-fault time "
                 "(graceful degradation if close to the derated "
                 "fraction's ideal).\n";
    return 0;
}

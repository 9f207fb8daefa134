/**
 * @file
 * Design-matrix walkthrough: run one workload under every Table-2 system
 * design and print the full metric row for each — a compact view of the
 * remote-access/load-balance tradeoff the paper studies.
 *
 * Usage: design_matrix [--workload=pr] [--scale=13] [--verify=true]
 *                      [--design=H|B|Sm|Sl|Sh|C|O]
 *                      [--trace-out=trace.json] [--stats-interval=N]
 *                      [--stats-out=stats.txt] [--mem-backend=meter|ddr]
 *                      [--assert-shape]
 *
 * --design restricts the matrix to one Table-2 row (quick iteration on
 * a single design); the speedup column needs the B baseline and prints
 * "-" when B is filtered out.
 *
 * --assert-shape exits nonzero unless the paper's Table-2 ordering
 * holds: O fastest of the classic NDP designs, the load-balanced
 * designs Sl/Sh above B, and the pure data-access designs Sm/C below
 * B. The extension rows (HLB, HLB-mig) must be present but carry no
 * ordering constraint — they are new design points, not paper rows.
 *
 * With --trace-out / --stats-out the design name is inserted before the
 * extension (trace.json -> trace.O.json), one file per Table-2 design.
 */

#include <iostream>
#include <map>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "driver/experiment.hh"
#include "driver/run_flags.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    WorkloadSpec spec;
    spec.name = flags.getString("workload", "pr");
    spec.scale = flags.getUint32("scale", 13);
    spec.edgeFactor = flags.getUint32("edge-factor", 16);

    SystemConfig base;
    base.seed = flags.getUint("seed", 1);

    RunFlags run = parseRunFlags(flags, /*threadsDefault=*/1);

    ExperimentOptions opts;
    opts.verify = flags.getBool("verify", true);

    bool assertShape = flags.getBool("assert-shape", false);

    std::vector<Design> designs = ndpDesigns();
    std::string only = flags.getString("design", "");
    if (!only.empty()) {
        if (assertShape)
            fatal("--assert-shape needs the full matrix; drop "
                  "--design=", only);
        designs = {designFromName(only)};
    }

    std::cout << "Workload: " << spec.name << " (scale " << spec.scale
              << ", edge factor " << spec.edgeFactor << ")\n\n";

    TextTable table({"design", "time(ms)", "speedup", "hops(k)",
                     "energy(mJ)", "imbalance", "campHit", "forwards",
                     "steals", "pbHit%", "rdLat(ns)", "rdMax(us)",
                     "util"});

    double baseTicks = 0.0;
    std::map<Design, std::uint64_t> ticksOf;
    for (Design d : designs) {
        SystemConfig cellBase = base;
        applyRunFlags(run, cellBase, designName(d));
        RunMetrics m = runExperiment(cellBase, d, spec, opts);
        ticksOf[d] = m.ticks;
        if (d == Design::B)
            baseTicks = static_cast<double>(m.ticks);
        double pbTotal =
            static_cast<double>(m.pbHits + m.pbLateHits + m.pbMisses);
        table.addRow({designName(d),
                      TextTable::fmt(m.seconds() * 1e3),
                      baseTicks > 0.0
                          ? TextTable::fmt(baseTicks / m.ticks)
                          : "-",
                      TextTable::fmt(m.interHops / 1000.0, 1),
                      TextTable::fmt(m.energy.total() / 1e9),
                      TextTable::fmt(m.imbalance()),
                      TextTable::fmt(m.campHitRate()),
                      TextTable::fmt(static_cast<std::uint64_t>(
                          m.forwardedTasks)),
                      TextTable::fmt(static_cast<std::uint64_t>(
                          m.stolenTasks)),
                      TextTable::fmt(pbTotal > 0
                          ? 100.0 * m.pbHits / pbTotal : 0.0, 1),
                      TextTable::fmt(m.readLatMeanNs, 0),
                      TextTable::fmt(m.readLatMaxNs / 1000.0, 1),
                      TextTable::fmt(m.utilization())});
    }
    table.print(std::cout);

    if (assertShape) {
        // The paper's Table-2 ordering (DESIGN.md): O combines both
        // optimizations and wins; load balancing alone (Sl/Sh) beats
        // B; data-access alone (Sm/C) trades time for hop count and
        // loses to B. The extension rows only need to exist.
        const std::vector<Design> classic = {Design::B, Design::Sm,
                                             Design::Sl, Design::Sh,
                                             Design::C, Design::O};
        for (Design d : classic) {
            if (!ticksOf.count(d))
                fatal("--assert-shape: design ", designName(d),
                      " missing from the matrix");
        }
        for (Design d : {Design::Hlb, Design::HlbM}) {
            if (!ticksOf.count(d))
                fatal("--assert-shape: extension design ",
                      designName(d), " missing from the matrix");
        }
        int violations = 0;
        auto expect = [&](bool ok, const char *law, Design a,
                          Design b) {
            if (ok)
                return;
            std::cerr << "shape violation: expected " << designName(a)
                      << " " << law << " " << designName(b) << " but "
                      << designName(a) << "=" << ticksOf[a]
                      << " ticks, " << designName(b) << "="
                      << ticksOf[b] << " ticks\n";
            ++violations;
        };
        for (Design d : classic) {
            if (d != Design::O)
                expect(ticksOf[Design::O] <= ticksOf[d],
                       "no slower than", Design::O, d);
        }
        expect(ticksOf[Design::Sl] < ticksOf[Design::B],
               "faster than", Design::Sl, Design::B);
        expect(ticksOf[Design::Sh] < ticksOf[Design::B],
               "faster than", Design::Sh, Design::B);
        expect(ticksOf[Design::Sm] > ticksOf[Design::B],
               "slower than", Design::Sm, Design::B);
        expect(ticksOf[Design::C] > ticksOf[Design::B],
               "slower than", Design::C, Design::B);
        if (violations > 0) {
            std::cerr << "design matrix lost the paper shape ("
                      << violations << " violation"
                      << (violations == 1 ? "" : "s") << ")\n";
            return 1;
        }
        std::cout << "\nshape: OK (O fastest; Sl/Sh above B; Sm/C "
                  << "below B; HLB rows present)\n";
    }
    return 0;
}

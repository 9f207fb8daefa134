/**
 * @file
 * Figure 10 (scalability): Page Rank on 2x2, 4x4 and 8x8 meshes (32,
 * 128, 512 NDP units), keeping C = 3. Reports per-scale speedup over
 * the same-scale baseline B and the energy ratio, plus the absolute
 * O-time ratio between scales (the paper notes 8x8 gains < 15% over
 * 4x4 because remote accesses dominate).
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
    // Bigger default input: 512 NDP units need enough parallel work.
    opts.scale = opts.flags.getUint32("scale", 15);
    opts.flags.rejectUnread();
    printBanner("Figure 10 — scalability (Page Rank; 2x2 / 4x4 / 8x8)",
                "O's speedup and energy reduction over B grow with "
                "scale; Sm/C scale worse than B; 8x8 gains <15% over "
                "4x4 in absolute time");

    WorkloadSpec spec = specFor("pr", opts);
    const auto &designs = ndpDesigns();

    std::vector<std::string> header{"mesh"};
    for (Design d : designs)
        header.push_back(designName(d));
    TextTable speed(header);
    TextTable energy(header);
    std::map<std::string, double> oTicks;

    for (std::uint32_t dim : {2u, 4u, 8u}) {
        SystemConfig base = opts.base;
        base.meshX = base.meshY = dim;
        std::string mesh = std::to_string(dim) + "x" + std::to_string(dim);

        double bTicks = 0.0, bEnergy = 0.0;
        std::vector<std::string> srow{mesh}, erow{mesh};
        for (Design d : designs) {
            RunMetrics m = runCell(base, d, spec, opts.verify);
            if (d == Design::B) {
                bTicks = static_cast<double>(m.ticks);
                bEnergy = m.energy.total();
            }
            srow.push_back(fmt(bTicks / m.ticks));
            erow.push_back(fmt(m.energy.total() / bEnergy));
            if (d == Design::O)
                oTicks[mesh] = static_cast<double>(m.ticks);
        }
        speed.addRow(srow);
        energy.addRow(erow);
    }

    std::cout << "(a) Speedup over the same-scale baseline B:\n";
    speed.print(std::cout);
    std::cout << "\n(b) Energy normalized to the same-scale B:\n";
    energy.print(std::cout);
    std::cout << "\nAbsolute O time: 4x4 is "
              << fmt(oTicks["2x2"] / oTicks["4x4"])
              << "x faster than 2x2; 8x8 is "
              << fmt(oTicks["4x4"] / oTicks["8x8"])
              << "x faster than 4x4 (paper: <1.15x)\n";
    return 0;
}

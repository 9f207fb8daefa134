/**
 * @file
 * Camp-location inspector: the Figure-5 picture as a tool. For any
 * simulated address, draw the stack mesh and mark the home unit and the
 * camp locations in every group, under the skewed or identical mapping.
 *
 * Usage: camp_inspector [--addr=0x...] [--camps=3] [--identical]
 */

#include <iomanip>
#include <iostream>

#include "cache/camp_mapping.hh"
#include "common/cli.hh"
#include "common/config.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    SystemConfig cfg;
    cfg.traveller.style = CacheStyle::TravellerSramTags;
    cfg.traveller.campCount = flags.getUint32("camps", 3);
    cfg.traveller.skewedMapping = !flags.getBool("identical", false);
    const Addr addr = blockAlign(flags.getUint("addr", 0x96012ec0ull));
    flags.rejectUnread();
    cfg.validate();

    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);

    CandidateList cl;
    camps.candidates(addr, cl);
    UnitId home = camps.homeOf(addr);

    std::cout << "Block 0x" << std::hex << addr << std::dec
              << "  home = unit " << home << " (stack "
              << topo.stackOf(home) << ", group " << topo.groupOf(home)
              << "), set " << camps.setIndex(addr) << "\n";
    std::cout << "Candidates per group:";
    for (GroupId g = 0; g < cl.n; ++g)
        std::cout << "  g" << g << "->unit " << cl.loc[g]
                  << (cl.loc[g] == home ? " (home)" : "");
    std::cout << "\n\nStack mesh (" << cfg.meshX << "x" << cfg.meshY
              << ", " << cfg.unitsPerStack
              << " units per stack; H = home, C = camp):\n\n";

    for (std::uint32_t y = 0; y < cfg.meshY; ++y) {
        for (std::uint32_t x = 0; x < cfg.meshX; ++x) {
            StackId s = y * cfg.meshX + x;
            std::cout << " [";
            for (UnitId u = 0; u < topo.numUnits(); ++u) {
                if (topo.stackOf(u) != s)
                    continue;
                char mark = '.';
                if (u == home)
                    mark = 'H';
                else
                    for (GroupId g = 0; g < cl.n; ++g)
                        if (cl.loc[g] == u)
                            mark = 'C';
                std::cout << mark;
            }
            std::cout << "]";
        }
        std::cout << "\n";
    }
    std::cout << "\nEach bracket is one stack; each character one NDP "
                 "unit.\nGroups are the 2x2 stack quadrants (Figure 5); "
                 "every group holds exactly one\ncandidate copy of the "
                 "block, so any requester has a nearby location.\n";
    return 0;
}

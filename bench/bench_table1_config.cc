/**
 * @file
 * Table 1 (system configurations): print the default configuration and
 * the Section-4.3 tag-storage arithmetic, so the reproduction's
 * parameters are auditable against the paper.
 */

#include <iostream>

#include "bench_common.hh"
#include "cache/camp_mapping.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv);
    opts.flags.rejectUnread();
    printBanner("Table 1 — system configurations",
                "4x4 stacks, 128 NDP units, 64GB; Traveller Cache 1/64 "
                "capacity, C=3, 40% bypass; B = 3*Dinter");

    SystemConfig cfg = applyDesign(opts.base, Design::O);
    cfg.print(std::cout);

    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    std::cout << "\nSection 4.3 tag-storage accounting:\n";
    std::cout << "  cache sets per unit        : " << cfg.travellerSets()
              << "\n";
    std::cout << "  tag bits (unrestricted)    : "
              << camps.tagBitsUnrestricted() << " (paper: 15)\n";
    std::cout << "  tag bits (camp-restricted) : " << camps.tagBits()
              << " (paper: 10, a 1.5x reduction)\n";
    std::cout << "  SRAM tag storage per unit  : "
              << camps.tagStorageBytes() / 1024 << " kB (paper: 160 kB)\n";
    return 0;
}

/**
 * @file
 * A sparse recommendation pipeline on an ABNDP system.
 *
 * Two NDP-friendly kernels back a toy recommender: iterated SpMV over a
 * user-item interaction matrix (collaborative-filtering score
 * propagation) and a GCN forward pass over the item-similarity graph
 * (content embeddings). Popular items make both kernels heavily skewed —
 * exactly the hotspot pattern ABNDP targets.
 *
 * Usage: sparse_recommender [--scale=13] [--layers=2]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "core/ndp_system.hh"
#include "workloads/gcn.hh"
#include "workloads/graph_gen.hh"
#include "workloads/spmv.hh"

namespace
{

/** Run one kernel under one design, returning headline metrics. */
template <typename MakeWorkload>
abndp::RunMetrics
runKernel(const abndp::SystemConfig &base, abndp::Design d,
          MakeWorkload &&make)
{
    using namespace abndp;
    NdpSystem sys(applyDesign(base, d));
    auto wl = make();
    RunMetrics m = sys.run(*wl);
    if (!wl->verify())
        fatal("kernel verification failed");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    std::uint32_t scale = flags.getUint32("scale", 13);
    std::uint32_t layers = flags.getUint32("layers", 2);
    flags.rejectUnread();

    RmatParams interactions;
    interactions.scale = scale;
    interactions.edgeFactor = 16;
    interactions.seed = 7;
    interactions.undirected = false;

    RmatParams similarity = interactions;
    similarity.seed = 8;
    similarity.undirected = true;

    std::cout << "Recommendation pipeline over a 2^" << scale
              << "-item catalog (power-law popularity)\n\n";

    SystemConfig base;
    TextTable table({"kernel", "system", "sim time (ms)", "hops (k)",
                     "energy (mJ)", "camp hit rate"});

    for (Design d : {Design::B, Design::O}) {
        const char *name = d == Design::B ? "baseline (B)" : "ABNDP (O)";
        RunMetrics spmv = runKernel(base, d, [&] {
            return std::make_unique<SpmvWorkload>(
                makeRmatGraph(interactions), 3);
        });
        table.addRow({"score propagation (spmv)", name,
                      TextTable::fmt(spmv.seconds() * 1e3),
                      TextTable::fmt(spmv.interHops / 1000.0, 1),
                      TextTable::fmt(spmv.energy.total() / 1e9),
                      TextTable::fmt(spmv.campHitRate())});
        RunMetrics gcn = runKernel(base, d, [&] {
            return std::make_unique<GcnWorkload>(
                makeRmatGraph(similarity), layers);
        });
        table.addRow({"item embeddings (gcn)", name,
                      TextTable::fmt(gcn.seconds() * 1e3),
                      TextTable::fmt(gcn.interHops / 1000.0, 1),
                      TextTable::fmt(gcn.energy.total() / 1e9),
                      TextTable::fmt(gcn.campHitRate())});
    }
    table.print(std::cout);

    std::cout << "\nABNDP keeps the popular items' rows/features cached "
                 "at camp locations, so\nhot-item tasks spread across "
                 "units without losing data locality.\n";
    return 0;
}

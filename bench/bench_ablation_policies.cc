/**
 * @file
 * Ablations of secondary design choices the paper discusses in text:
 *
 *  1. Replacement policy (Section 4.4): "little performance difference
 *     between an LRU and a random policy" — random avoids the metadata.
 *  2. Programmer workload hints (Section 3.1): the scheduler's
 *     memory-cost estimate should be as good as exact hint.workload
 *     values ("the estimation only needs to be approximate").
 *  3. Data placement: the element-interleaved baseline placement vs
 *     naive blocked partitioning.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/ndp_system.hh"
#include "workloads/graph_gen.hh"
#include "workloads/pagerank.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    opts.flags.rejectUnread();
    printBanner("Ablations — replacement, load hints, data placement",
                "Section 4.4: LRU ~= random replacement; Section 3.1: "
                "estimated loads suffice; blocked placement destroys "
                "the baseline's balance");

    // ---- 1. Traveller replacement policy ----
    {
        TextTable table({"workload", "policy", "time (ms)", "campHit",
                         "speedup vs random"});
        for (const auto &wl : {std::string("pr"), std::string("gcn")}) {
            WorkloadSpec spec = specFor(wl, opts);
            double base = 0.0;
            for (ReplPolicy repl : {ReplPolicy::Random, ReplPolicy::Lru}) {
                SystemConfig cfg = opts.base;
                cfg.traveller.repl = repl;
                RunMetrics m = runCell(cfg, Design::O, spec, opts.verify);
                if (repl == ReplPolicy::Random)
                    base = static_cast<double>(m.ticks);
                table.addRow({wl,
                              repl == ReplPolicy::Random ? "random"
                                                         : "LRU",
                              fmt(m.seconds() * 1e3),
                              fmt(m.campHitRate()),
                              fmt(base / m.ticks)});
            }
        }
        std::cout << "1. Traveller Cache replacement policy:\n";
        table.print(std::cout);
    }

    // ---- 2. Programmer workload hints vs estimation ----
    {
        TextTable table({"workload", "hint.workload", "time (ms)",
                         "imbalance", "speedup vs estimated"});
        for (const auto &wl :
             {std::string("pr"), std::string("gcn"), std::string("spmv")}) {
            double base = 0.0;
            for (bool explicit_hints : {false, true}) {
                WorkloadSpec spec = specFor(wl, opts);
                spec.explicitLoadHints = explicit_hints;
                RunMetrics m =
                    runCell(opts.base, Design::O, spec, opts.verify);
                if (!explicit_hints)
                    base = static_cast<double>(m.ticks);
                table.addRow({wl,
                              explicit_hints ? "programmer" : "estimated",
                              fmt(m.seconds() * 1e3), fmt(m.imbalance()),
                              fmt(base / m.ticks)});
            }
        }
        std::cout << "\n2. Scheduler load information:\n";
        table.print(std::cout);
    }

    // ---- 3. Data placement ----
    {
        TextTable table({"placement", "design", "time (ms)", "imbalance",
                         "hops (k)"});
        RmatParams p;
        p.scale = opts.scale;
        p.seed = opts.seed;
        p.undirected = false;
        for (Placement placement :
             {Placement::Interleaved, Placement::Blocked}) {
            for (Design d : {Design::B, Design::O}) {
                NdpSystem sys(applyDesign(opts.base, d));
                PageRankWorkload pr(makeRmatGraph(p), 4, 1e-7, placement);
                RunMetrics m = sys.run(pr);
                if (opts.verify && !pr.verify())
                    fatal("placement ablation verification failed");
                table.addRow({placement == Placement::Interleaved
                                  ? "interleaved"
                                  : "blocked",
                              designName(d), fmt(m.seconds() * 1e3),
                              fmt(m.imbalance()),
                              fmt(m.interHops / 1000.0, 1)});
            }
        }
        std::cout << "\n3. Page Rank data placement:\n";
        table.print(std::cout);
    }
    return 0;
}

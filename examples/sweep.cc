/**
 * @file
 * sweep — run a (workload x design) grid of independent simulations in
 * parallel and emit one JSON line per cell. Cells run on the shared
 * grid runner (driver/cell_runner.hh): simulator instances share
 * nothing, results land in cell order, and per-cell metrics are
 * bit-identical for any --threads value.
 *
 * Usage:
 *   sweep --workloads=pr,bfs,gcn --designs=B,Sl,O --scale=13 \
 *         --threads=8 [--verify] [--out=results.jsonl] \
 *         [--trace-out=trace.json] [--stats-interval=N] \
 *         [--stats-out=stats.txt] [--mem-backend=meter|ddr]
 *
 * The run flags (driver/run_flags.hh) apply to every cell. With
 * --trace-out / --stats-out every cell writes its own file, the
 * workload and design tags inserted before the extension
 * (trace.json -> trace.pr.O.json).
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "core/stats_report.hh"
#include "driver/cell_runner.hh"
#include "driver/experiment.hh"
#include "driver/run_flags.hh"
#include "workloads/factory.hh"

namespace
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream iss(csv);
    std::string item;
    while (std::getline(iss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace abndp;

    CliFlags flags(argc, argv);
    auto workloads =
        splitList(flags.getString("workloads", "pr,bfs,gcn,spmv"));
    auto designNames = splitList(flags.getString("designs", "B,Sl,O"));
    const std::uint32_t threads =
        flags.getUint32("threads", defaultThreads());
    bool verify = flags.getBool("verify", false);
    std::string outPath = flags.getString("out", "");

    WorkloadSpec baseSpec;
    baseSpec.scale = flags.getUint32("scale", 13);
    baseSpec.edgeFactor = flags.getUint32("edge-factor", 16);
    baseSpec.seed = flags.getUint("seed", 42);

    std::vector<CellSpec> cells;
    for (const auto &wl : workloads) {
        for (const auto &dn : designNames) {
            CellSpec cell;
            cell.design = abndp::designFromName(dn);
            cell.workload = baseSpec;
            cell.workload.name = wl;
            cell.opts.verify = verify;
            cell.opts.fatalOnVerifyFailure = true;
            cell.config.emplace();
            applyRunFlags(flags, *cell.config, wl + "." + dn,
                          /*multiCell=*/true);
            cells.push_back(cell);
        }
    }
    flags.rejectUnread();

    auto progress = [&](std::size_t done, std::size_t total,
                        std::size_t idx) {
        std::cerr << "[" << done << "/" << total << "] "
                  << cells[idx].workload.name << "/"
                  << designName(cells[idx].design) << "\n";
    };
    std::vector<RunMetrics> results =
        fatalIfOutOfMemory(baseSpec.inputName(), [&] {
            return runCells(SystemConfig{}, cells, threads, progress);
        });

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!outPath.empty()) {
        file.open(outPath);
        if (!file)
            fatal("cannot open ", outPath);
        os = &file;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SystemConfig cfg = applyDesign(*cells[i].config, cells[i].design);
        *os << "{\"workload\":\"" << cells[i].workload.name
            << "\",\"design\":\"" << designName(cells[i].design)
            << "\",\"metrics\":";
        dumpJson(*os, cfg, results[i]);
        *os << "}\n";
    }
    return 0;
}

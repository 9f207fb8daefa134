/**
 * @file
 * Simulator performance smoke test (not a paper figure): runs a fixed
 * small (design, workload) grid and reports host-side throughput as one
 * machine-readable JSON line, so CI can archive a perf trajectory and
 * regressions in the event kernel or cache models show up as a drop in
 * events/sec.
 *
 * The simulated metrics of every cell are bit-deterministic; only the
 * wall-clock figures vary between hosts and runs. events_per_sec divides
 * the summed kernel events by the summed time spent inside
 * NdpSystem::run() (RunMetrics::hostSeconds), so input generation,
 * verify() and thread fan-out do not dilute it; wall_seconds is the
 * whole grid's elapsed time, set-up and host reference timing
 * included.
 *
 * Host speed drifts between runs by about as much as a regression gate
 * can allow, so right before each cell the bench times the host
 * reference kernel (bench::hostReferenceSeconds(), bench_e2e's kernel)
 * and records the median as host_ref_s. events_per_sec_nominal is
 * events_per_sec scaled to a host on which that kernel takes
 * bench::hostReferenceNominalS (0.1 s).
 *
 * --compare=FILE checks this run's events_per_sec_nominal and
 * peak_rss_mb against a baseline JSON line written by a previous run
 * (--out): the process exits nonzero when throughput fell or the peak
 * resident set rose by more than --tolerance (default 0.10). The peak
 * resident set is checked only against a baseline of the same threads
 * value. A missing or unparsable baseline warns and passes, so the
 * first CI run on a fresh cache succeeds.
 *
 * --workloads=pr,bfs and --designs=B,O subset the grid (comma-
 * separated workload names / Table-2 design letters), so expensive
 * large-scale records (e.g. the scale-20 guard in CI) can track a
 * single representative cell instead of the full default grid.
 *
 * peak_rss_mb is the process's peak resident set (getrusage
 * ru_maxrss) after the grid ran. Cells on different threads are
 * resident together, so it compares only between records of the same
 * threads value.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace abndp;
    using namespace abndp::bench;

    Options opts = parseOptions(argc, argv, /*sweepBench=*/true);
    std::uint32_t scale = opts.flags.getUint32("scale", 12);
    opts.scale = scale;

    // Default grid: two contrasting workloads on the baseline and the
    // full design; --workloads/--designs subset it for targeted
    // records (the order is workload-major, matching the default).
    const std::vector<std::string> wls =
        splitCsv(opts.flags.getString("workloads", "pr,bfs"));
    const std::vector<std::string> designNames =
        splitCsv(opts.flags.getString("designs", "B,O"));
    readRecordFlags(opts);
    readThreads(opts);
    opts.flags.rejectUnread();
    if (wls.empty() || designNames.empty())
        fatal("--workloads/--designs must name at least one cell");

    std::vector<CellSpec> grid;
    for (const std::string &wl : wls)
        for (const std::string &dn : designNames)
            grid.push_back(
                cellFor(designFromName(dn), specFor(wl, opts), opts));

    std::vector<double> refSeconds(grid.size());
    auto start = std::chrono::steady_clock::now();
    std::vector<RunMetrics> results = runCells(
        opts.base, grid, opts.threads, {},
        [&refSeconds](std::size_t i) {
            refSeconds[i] = hostReferenceSeconds();
        });
    auto end = std::chrono::steady_clock::now();
    std::sort(refSeconds.begin(), refSeconds.end());
    const std::size_t mid = refSeconds.size() / 2;
    const double hostRefS = refSeconds.size() % 2
        ? refSeconds[mid]
        : (refSeconds[mid - 1] + refSeconds[mid]) / 2;

    double wall = std::chrono::duration<double>(end - start).count();
    std::uint64_t events = 0;
    std::uint64_t tasks = 0;
    double runSeconds = 0.0;
    for (const RunMetrics &m : results) {
        events += m.simEvents;
        tasks += m.tasks;
        runSeconds += m.hostSeconds;
    }
    const double eps = runSeconds > 0 ? events / runSeconds : 0;
    const double epsNominal = eps * hostRefS / hostReferenceNominalS;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::uint32_t threads = opts.threads ? opts.threads
                                         : defaultThreads();
    auto joinCsv = [](const std::vector<std::string> &v) {
        std::string s;
        for (const std::string &e : v)
            s += (s.empty() ? "" : ",") + e;
        return s;
    };
    std::ostringstream json;
    json << "{\"bench\":\"perf_smoke\""
         << ",\"scale\":" << scale
         << ",\"workloads\":\"" << joinCsv(wls) << "\""
         << ",\"designs\":\"" << joinCsv(designNames) << "\""
         << ",\"threads\":" << threads
         << ",\"cells\":" << grid.size()
         << ",\"sim_events\":" << events
         << ",\"sim_tasks\":" << tasks
         << ",\"wall_seconds\":" << wall
         << ",\"cells_per_sec\":" << (wall > 0 ? grid.size() / wall : 0)
         << ",\"events_per_sec\":" << eps
         << ",\"host_ref_s\":" << hostRefS
         << ",\"events_per_sec_nominal\":" << epsNominal
         << ",\"peak_rss_mb\":" << peakRssMb
         << "}";

    emitRecord(json.str(), opts);
    return compareRecord(json.str(), opts,
                         {{"events_per_sec_nominal", true},
                          {"peak_rss_mb", false, "threads"}});
}

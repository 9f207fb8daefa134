/**
 * @file
 * Memory-backend sweep (not a paper figure): runs a small design grid
 * under every MemBackend — the analytic bandwidth meter and the
 * bank-state DDR model — and reports both the simulated contrast
 * (latency, row-buffer behaviour, ACT stalls) and a machine-readable
 * JSON line with host throughput, so CI can guard the DDR fast path
 * against host-side regressions the same way bench_perf_smoke guards
 * the event kernel.
 *
 * --compare=FILE checks this run's events_per_sec against a baseline
 * JSON line written by a previous run (--out): the process exits
 * nonzero when throughput regressed by more than --tolerance (default
 * 0.10). A missing or unparsable baseline warns and passes, so the
 * first CI run on a fresh cache succeeds.
 */

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
    const std::string wl = opts.flags.getString("workload", "pr");
    WorkloadSpec spec = specFor(wl, opts);

    printBanner("Memory-backend sweep — analytic meter vs bank-state "
                "DDR",
                "(extension) the design ordering must survive the "
                "backend swap; DDR adds row-buffer and tFAW detail");

    struct Backend
    {
        const char *label;
        MemBackendKind kind;
    };
    const Backend backends[] = {{"meter", MemBackendKind::Meter},
                                {"ddr", MemBackendKind::Ddr}};

    TextTable table({"design", "backend", "time (ms)", "row hit%",
                     "actStalls", "vs meter"});

    auto start = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    for (Design d : {Design::B, Design::Sl, Design::O}) {
        double meterTicks = 0.0;
        for (const Backend &be : backends) {
            SystemConfig cfg = opts.base;
            cfg.dram.backend = be.kind;
            if (be.kind == MemBackendKind::Ddr)
                cfg.dram.pagePolicy = PagePolicy::Adaptive;
            RunMetrics m = runCell(cfg, d, spec, opts.verify);
            events += m.simEvents;
            std::uint64_t rowRefs = m.dramRowHits + m.dramRowMisses;
            double hitPct = rowRefs
                ? 100.0 * static_cast<double>(m.dramRowHits) / rowRefs
                : 0.0;
            if (be.kind == MemBackendKind::Meter)
                meterTicks = static_cast<double>(m.ticks);
            table.addRow({designName(d), be.label,
                          fmt(m.seconds() * 1e3),
                          be.kind == MemBackendKind::Ddr ? fmt(hitPct, 1)
                                                         : "-",
                          std::to_string(m.dramActStalls),
                          fmt(static_cast<double>(m.ticks) / meterTicks)});
        }
    }
    table.print(std::cout);

    // Row-locality ablation (DDR only): the Traveller set index is
    // low-bit by default, so consecutive blocks occupy consecutive
    // sets and the cache data region inherits DRAM row adjacency
    // (cache/traveller_cache.hh). Hashing the index scatters those
    // blocks across rows; the analytic meter cannot tell the
    // difference, the bank-state backend can.
    std::cout << "\nTraveller set index under the DDR backend:\n";
    TextTable idx({"design", "index", "time (ms)", "row hit%",
                   "rowMisses"});
    for (Design d : {Design::C, Design::O}) {
        for (bool hashed : {false, true}) {
            SystemConfig cfg = opts.base;
            cfg.dram.backend = MemBackendKind::Ddr;
            cfg.dram.pagePolicy = PagePolicy::Adaptive;
            cfg.traveller.hashedIndex = hashed;
            RunMetrics m = runCell(cfg, d, spec, opts.verify);
            events += m.simEvents;
            std::uint64_t rowRefs = m.dramRowHits + m.dramRowMisses;
            double hitPct = rowRefs
                ? 100.0 * static_cast<double>(m.dramRowHits) / rowRefs
                : 0.0;
            idx.addRow({designName(d), hashed ? "hashed" : "low-bit",
                        fmt(m.seconds() * 1e3), fmt(hitPct, 1),
                        std::to_string(m.dramRowMisses)});
        }
    }
    auto end = std::chrono::steady_clock::now();
    idx.print(std::cout);

    double wall = std::chrono::duration<double>(end - start).count();
    std::ostringstream json;
    json << "{\"bench\":\"mem\""
         << ",\"scale\":" << opts.scale
         << ",\"workload\":\"" << wl << "\""
         << ",\"cells\":" << 10
         << ",\"sim_events\":" << events
         << ",\"wall_seconds\":" << wall
         << ",\"events_per_sec\":" << (wall > 0 ? events / wall : 0)
         << "}";
    emitRecord(json.str(), opts);
    return compareRecord(json.str(), opts, {{"events_per_sec", true}});
}

/**
 * @file
 * Shared infrastructure for the per-table/per-figure benchmark binaries.
 * Every binary runs standalone with small defaults (so that looping over
 * `build/bench/bench_*` regenerates all results) and accepts --scale /
 * --seed / --sim-seed / --verify flags to change fidelity. A bench reads
 * its own flags after parseOptions() and then calls
 * opts.flags.rejectUnread() before its first run.
 */

#ifndef ABNDP_BENCH_BENCH_COMMON_HH
#define ABNDP_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "core/metrics.hh"
#include "driver/cell_runner.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

namespace abndp
{
namespace bench
{

/** Parsed common options of a benchmark binary. */
struct Options
{
    /** Base config: --sim-seed applied. */
    SystemConfig base;
    CliFlags flags;
    /** Graph scale for graph workloads (sweeps default smaller). */
    std::uint32_t scale = 14;
    bool verify = false;
    std::uint64_t seed = 42;
    /** Host threads for the cell grid (readThreads(); 0 = all cores). */
    std::uint32_t threads = 0;
    /** File emitRecord() also writes the record to ("" = none). */
    std::string out;
    /** Baseline record compareRecord() checks against ("" = none). */
    std::string compare;
    /** Change compareRecord() allows in the worse direction. */
    double tolerance = 0.10;
};

/**
 * Parse the common flags. @p sweepBench picks the smaller default scale
 * used by the parameter sweeps (Figures 11-18).
 */
Options parseOptions(int argc, char **argv, bool sweepBench = false);

/**
 * Read --threads, the host threads runGrid() spreads the cells over. A
 * bench that runs its cells one by one does not call it, so it refuses
 * the flag.
 */
void readThreads(Options &opts);

/**
 * Read the flags of a bench that writes a JSON record: --out, and
 * with @p compare also --compare and --tolerance. A bench without a
 * record does not call it, so it refuses them.
 */
void readRecordFlags(Options &opts, bool compare = true);

/** Workload spec sized according to the options. */
WorkloadSpec specFor(const std::string &name, const Options &opts);

/** Run one (design, workload) cell. */
RunMetrics runCell(const SystemConfig &base, Design d,
                   const WorkloadSpec &spec, bool verify);

/** Cell spec with the benchmark's standard verify behavior applied. */
CellSpec cellFor(Design d, const WorkloadSpec &spec, const Options &opts);

/**
 * Run a whole grid of cells on opts.threads host threads (results in
 * cell order; per-cell metrics independent of the thread count).
 */
std::vector<RunMetrics> runGrid(const Options &opts,
                                const std::vector<CellSpec> &cells);

/** Geometric mean of a list of ratios. */
double geomean(const std::vector<double> &values);

/**
 * Print the benchmark banner: which paper artifact this regenerates and
 * what shape the paper reports (EXPERIMENTS.md records the comparison).
 */
void printBanner(const std::string &artifact, const std::string &paper);

/**
 * Print a bench's one-line JSON record to stdout and, with --out=FILE
 * (readRecordFlags), write it to FILE too (fatal() when FILE cannot be
 * written).
 */
void emitRecord(const std::string &json, const Options &opts);

/** One figure --compare checks: a record key and its better direction. */
struct RecordKey
{
    std::string key;
    bool higherIsBetter;
};

/**
 * --compare=FILE: check each of @p keys in the record @p json against
 * the same key in FILE's first line, allowing --tolerance (default
 * 0.10) of change in the worse direction. Returns the exit status: 0
 * without --compare, or when FILE is missing or any key is missing or
 * <= 0 in it (a warning: a fresh CI cache has no baseline yet), or when
 * nothing regressed; 1 when a key regressed beyond the tolerance, after
 * every key was checked and reported.
 */
int compareRecord(const std::string &json, const Options &opts,
                  const std::vector<RecordKey> &keys);

/** Split a comma-separated flag value; empty fields are dropped. */
std::vector<std::string> splitCsv(const std::string &s);

/**
 * Parse a comma-separated list of numbers, each field through
 * parseDouble() (a malformed field is a fatal() naming @p what).
 */
std::vector<double> parseCsvDoubles(const std::string &what,
                                    const std::string &s);

/** Shorthand formatter. */
inline std::string
fmt(double v, int prec = 2)
{
    return TextTable::fmt(v, prec);
}

} // namespace bench
} // namespace abndp

#endif // ABNDP_BENCH_BENCH_COMMON_HH

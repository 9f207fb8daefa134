#include "bench_common.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hh"

namespace abndp
{
namespace bench
{

Options
parseOptions(int argc, char **argv, bool sweepBench)
{
    Options opts;
    opts.flags.parse(argc, argv);
    opts.scale = opts.flags.getUint32("scale", sweepBench ? 13 : 14);
    opts.verify = opts.flags.getBool("verify", false);
    opts.seed = opts.flags.getUint("seed", 42);
    opts.base.seed = opts.flags.getUint("sim-seed", opts.base.seed);
    return opts;
}

void
readThreads(Options &opts)
{
    opts.threads = opts.flags.getUint32("threads", defaultThreads());
}

void
readRecordFlags(Options &opts, bool compare)
{
    opts.out = opts.flags.getString("out", "");
    if (!compare)
        return;
    opts.compare = opts.flags.getString("compare", "");
    opts.tolerance = opts.flags.getDouble("tolerance", opts.tolerance);
}

WorkloadSpec
specFor(const std::string &name, const Options &opts)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.seed = opts.seed;
    spec.scale = opts.scale;
    // Non-graph workloads shrink with the scale knob too so that sweep
    // benches stay fast.
    if (opts.scale < 14) {
        spec.kmeansPoints = 1ull << (opts.scale + 2);
        spec.knnPoints = 1u << (opts.scale + 1);
        spec.knnQueries = 1u << (opts.scale - 3);
        spec.astarQueries = 8;
    }
    return spec;
}

RunMetrics
runCell(const SystemConfig &base, Design d, const WorkloadSpec &spec,
        bool verify)
{
    ExperimentOptions eopts;
    eopts.verify = verify;
    eopts.fatalOnVerifyFailure = true;
    return runExperiment(base, d, spec, eopts);
}

CellSpec
cellFor(Design d, const WorkloadSpec &spec, const Options &opts)
{
    CellSpec cell;
    cell.design = d;
    cell.workload = spec;
    cell.opts.verify = opts.verify;
    cell.opts.fatalOnVerifyFailure = true;
    return cell;
}

std::vector<RunMetrics>
runGrid(const Options &opts, const std::vector<CellSpec> &cells)
{
    return runCells(opts.base, cells, opts.threads);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / values.size());
}

namespace
{

/**
 * Extract the number after "\"key\":" from a one-line JSON record.
 * @return false when the key is absent (malformed baseline).
 */
bool
extractJsonNumber(const std::string &json, const std::string &key,
                  double &out)
{
    auto pos = json.find("\"" + key + "\":");
    if (pos == std::string::npos)
        return false;
    pos += key.size() + 3;
    try {
        out = std::stod(json.substr(pos));
    } catch (...) {
        return false;
    }
    return true;
}

} // namespace

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream iss(s);
    std::string tok;
    while (std::getline(iss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

std::vector<double>
parseCsvDoubles(const std::string &what, const std::string &s)
{
    std::vector<double> out;
    for (const std::string &tok : splitCsv(s))
        out.push_back(parseDouble(what, tok));
    return out;
}

void
emitRecord(const std::string &json, const Options &opts)
{
    std::cout << json << "\n";
    if (opts.out.empty())
        return;
    std::ofstream out(opts.out);
    if (!out)
        fatal("cannot write ", opts.out);
    out << json << "\n";
}

int
compareRecord(const std::string &json, const Options &opts,
              const std::vector<RecordKey> &keys)
{
    const std::string &path = opts.compare;
    if (path.empty())
        return 0;
    const double tolerance = opts.tolerance;
    std::ifstream file(path);
    std::string baseline;
    if (!file || !std::getline(file, baseline)) {
        warn("baseline ", path, " missing; skipping comparison (first run?)");
        return 0;
    }
    std::vector<double> base(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!extractJsonNumber(baseline, keys[i].key, base[i])
            || base[i] <= 0.0) {
            warn("baseline ", path, " has no usable ", keys[i].key,
                 "; skipping comparison");
            return 0;
        }
    }
    bool regressed = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        double cur = 0.0;
        extractJsonNumber(json, keys[i].key, cur);
        std::cerr << "compare " << keys[i].key << ": " << cur
                  << " vs baseline " << base[i] << " (x" << cur / base[i]
                  << ", tolerance " << tolerance * 100 << "%)\n";
        const bool worse = keys[i].higherIsBetter
            ? cur < base[i] * (1.0 - tolerance)
            : cur > base[i] * (1.0 + tolerance);
        if (worse) {
            std::cerr << keys[i].key << ": regression beyond "
                      << tolerance * 100 << "% tolerance\n";
            regressed = true;
        }
    }
    return regressed ? 1 : 0;
}

void
printBanner(const std::string &artifact, const std::string &paper)
{
    std::cout << "==============================================================\n";
    std::cout << "ABNDP reproduction: " << artifact << "\n";
    std::cout << "Paper reports: " << paper << "\n";
    std::cout << "==============================================================\n\n";
}

} // namespace bench
} // namespace abndp

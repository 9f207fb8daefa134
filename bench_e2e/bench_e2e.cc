/**
 * @file
 * End-to-end benchmark: one command that measures the simulator's host
 * cost, its simulated results, and an outside-in per-layer breakdown on
 * four fixed workloads (README.md in this directory explains each).
 *
 *     bench_e2e [--seed=42] [--reps=3] [--seconds=0] [--out=FILE]
 *               [--trace=DIR] [--workload=NAME] [--smoke]
 *               [--declared=BENCHMARK.json]
 *
 * --seed picks a set of inputsPerSeed inputs per workload; input i
 * seeds both WorkloadSpec::seed (the generated data) and
 * SystemConfig::seed (arrival stream and model Rng) with
 * seed * inputsPerSeed + i. The parent process forks one child per
 * cell, one at a time: a round runs every input of every selected
 * workload, so host drift hits all workloads alike. At least --reps
 * rounds run; further rounds run while they fit in --seconds. The
 * parent reads each child's peak RSS with wait4().
 *
 * A cell is makeWorkload, NdpSystem construction, run(), verify(), the
 * registry dump, and a functional re-run of the same task set (for
 * serving: the same admitted requests) through ImmediateExecutor. With
 * --trace the first round adds one traced cell per input, each right
 * after its untraced twin: it times the scheduler's choose() through a
 * registered decorator policy and counts blocks per access level
 * through AccessPath's observer; input 0 writes its spans to
 * DIR/<workload>.trace.json.
 *
 * Each cell first times a fixed host kernel; cell_s, setup_s and
 * events_per_s are scaled by it to a host of nominal speed, which takes
 * out most of the host's drift.
 *
 * Every layer is measured from outside: the benchmark times its own
 * calls into public entry points and uses only seams that are already
 * observational, so measuring leaves simulated results unchanged.
 * Self-checks (verify() of both runs, equal registry digests for every
 * cell of an input, functional task count == core.tasks) fail the run
 * with exit code 1.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "mem/allocator.hh"
#include "sched/policy_registry.hh"
#include "workloads/factory.hh"
#include "workloads/query_service.hh"

namespace
{

using namespace abndp;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- Workloads --------------------------------------------------------

/** One fixed benchmark workload (names are cited by later changes). */
struct WorkloadDef
{
    const char *name;
    const char *app;
    Design design;
    MemBackendKind backend;
    std::uint32_t scale;
    /** Open-loop serving stream; 0 = batch run to completion. */
    std::uint64_t requests;
};

/**
 * Inputs per seed. O's makespan moves ~6% between inputs (the hottest
 * unit sets it), so a run reports the mean over several.
 */
constexpr std::uint64_t inputsPerSeed = 4;

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t input)
{
    return seed * inputsPerSeed + input;
}

constexpr std::uint64_t kvKeys = 1ull << 20;
constexpr double kvRatePerUs = 16.0;
constexpr double kvZipfS = 0.99;
constexpr double kvSloNs = 4000.0;

// Sizes keep a cell between 1 and 1.7 s on one core, so a run of 30 s
// (run_seconds in BENCHMARK.json) holds at least two rounds of every
// input, or one round of traced twins, even on a host 1.5x slower;
// pr-B keeps the largest graph.
const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs{
        {"pr-O", "pr", Design::O, MemBackendKind::Meter, 14, 0},
        {"pr-HLBmig", "pr", Design::HlbM, MemBackendKind::Meter, 14, 0},
        {"pr-B", "pr", Design::B, MemBackendKind::Meter, 15, 0},
        {"kv-serve", "kv", Design::O, MemBackendKind::Ddr, 0, 150000},
    };
    return defs;
}

/** --smoke shrinks every workload to scale 12 / 20k requests. */
WorkloadDef
smokeDef(WorkloadDef d)
{
    if (d.requests > 0)
        d.requests = 20000;
    else
        d.scale = 12;
    return d;
}

WorkloadSpec
specFor(const WorkloadDef &d, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = d.app;
    spec.seed = seed;
    if (d.scale > 0)
        spec.scale = d.scale;
    spec.kvKeys = kvKeys;
    return spec;
}

SystemConfig
configFor(const WorkloadDef &d, std::uint64_t seed)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, d.design);
    cfg.seed = seed;
    cfg.dram.backend = d.backend;
    if (d.requests > 0) {
        cfg.serving.requests = d.requests;
        cfg.serving.ratePerUs = kvRatePerUs;
        cfg.serving.zipfS = kvZipfS;
        cfg.serving.sloNs = kvSloNs;
    }
    return cfg;
}

// ---- Metric catalogue -------------------------------------------------

/** How one metric is reduced over the cells of a workload. */
enum class Agg
{
    /** Host measurement: median over every untraced cell. */
    Host,
    /** Simulated result: mean over the inputs (exact per input). */
    Sim,
    /** Per-layer value: median over the traced cells. */
    Traced,
};

// Units: "s"/"ns" are host time; "sim_us"/"sim_ns"/"req/sim_s" are
// simulated, deterministic for an input and exactly repeatable.
struct MetricDef
{
    const char *name;
    const char *unit;
    Agg agg;
};

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs{
        {"cell_s", "s", Agg::Host},
        {"setup_s", "s", Agg::Host},
        {"events_per_s", "events/s", Agg::Host},
        {"peak_rss_mb", "MB", Agg::Host},
        {"sim_time_us", "sim_us", Agg::Sim},
        {"sim_energy_uj", "uJ", Agg::Sim},
        {"serve_p50_ns", "sim_ns", Agg::Sim},
        {"serve_p99_ns", "sim_ns", Agg::Sim},
        {"serve_p999_ns", "sim_ns", Agg::Sim},
        {"serve_goodput_qps", "req/sim_s", Agg::Sim},
        // Failed operations / attempted ones, over every cell.
        {"error_rate", "fraction", Agg::Sim},

        {"workloads.make_s", "s", Agg::Traced},
        {"workloads.verify_s", "s", Agg::Traced},
        {"workloads.functional_s", "s", Agg::Traced},
        {"core.construct_s", "s", Agg::Traced},
        {"core.run_s", "s", Agg::Traced},
        {"core.run_self_s", "s", Agg::Traced},
        {"core.tasks", "count", Agg::Traced},
        {"core.epochs", "count", Agg::Traced},
        {"core.forwarded_tasks", "count", Agg::Traced},
        {"core.utilization", "fraction", Agg::Traced},
        {"core.load_imbalance", "ratio", Agg::Traced},
        {"core.access.pb", "count", Agg::Traced},
        {"core.access.l1", "count", Agg::Traced},
        {"core.access.tlb", "count", Agg::Traced},
        {"core.access.camp", "count", Agg::Traced},
        {"core.access.dram", "count", Agg::Traced},
        {"sched.choose_s", "s", Agg::Traced},
        {"sched.choose_calls", "count", Agg::Traced},
        {"sched.choose_ns", "ns", Agg::Traced},
        {"sched.decisions", "count", Agg::Traced},
        {"sched.exchanges", "count", Agg::Traced},
        {"lb.shed_intra", "count", Agg::Traced},
        {"lb.shed_inter", "count", Agg::Traced},
        {"lb.blocks_migrated", "count", Agg::Traced},
        {"lb.migration_bytes", "bytes", Agg::Traced},
        {"cache.camp_hit_rate", "fraction", Agg::Traced},
        {"cache.traveller_insertions", "count", Agg::Traced},
        {"cache.traveller_bypasses", "count", Agg::Traced},
        {"cache.pb_useful_frac", "ratio", Agg::Traced},
        {"cache.pb_late_hits", "count", Agg::Traced},
        {"cache.l1d_miss_rate", "fraction", Agg::Traced},
        {"mem.dram_reads", "count", Agg::Traced},
        {"mem.dram_writes", "count", Agg::Traced},
        {"mem.dram_row_hit_rate", "fraction", Agg::Traced},
        {"mem.dram_act_stalls", "count", Agg::Traced},
        {"mem.dram_queue_wait_ns_mean", "sim_ns", Agg::Traced},
        {"mem.read_latency_ns_mean", "sim_ns", Agg::Traced},
        {"net.packets", "count", Agg::Traced},
        {"net.inter_hops", "count", Agg::Traced},
        {"net.link_wait_ns_mean", "sim_ns", Agg::Traced},
        {"net.port_wait_ns_mean", "sim_ns", Agg::Traced},
        {"sim.events", "count", Agg::Traced},
        {"serve.injected", "count", Agg::Traced},
        {"serve.rejected", "count", Agg::Traced},
        {"serve.slo_misses", "count", Agg::Traced},
        {"serve.windows", "count", Agg::Traced},
        {"obs.dump_s", "s", Agg::Traced},
        // Median over inputs of traced cell_s / untraced twin - 1.
        {"bench.trace_overhead_frac", "fraction", Agg::Traced},
        // Host speed reference time (median over untraced cells).
        {"bench.host_ref_s", "s", Agg::Host},
    };
    return defs;
}

// ---- Host speed ---------------------------------------------------------

/** What referenceSeconds() takes on a host of nominal speed. */
constexpr double referenceNominalS = 0.1;

/**
 * Time a fixed host kernel: sorting 2^20 pseudo-random 64-bit keys.
 * The host's speed drifts by up to ±25% over minutes, and this kernel
 * follows the drift (README.md, "Host speed"). It runs no simulator
 * code, so no change to the simulator moves it. Its buffer is mapped
 * and unmapped directly, so the cell's heap starts as it would without
 * it.
 */
double
referenceSeconds()
{
    constexpr std::size_t n = std::size_t{1} << 20;
    constexpr std::size_t bytes = n * sizeof(std::uint64_t);
    void *mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        fatal("mmap() failed");
    auto *keys = static_cast<std::uint64_t *>(mem);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys[i] = x;
    }
    const auto t0 = Clock::now();
    std::sort(keys, keys + n);
    const double s = secondsBetween(t0, Clock::now());
    munmap(mem, bytes);
    return s;
}

// ---- Outside-in instrumentation ---------------------------------------

/** Aggregated choose() timing: per-call spans would number ~1M. */
struct ChooseStats
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    /** log2Hist[k] counts calls whose duration in ns has bit width k. */
    std::array<std::uint64_t, 65> log2Hist{};
};

/** Timing decorator around the configured placement policy. */
class TimedPolicy final : public SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<SchedulingPolicy> wrapped,
                std::shared_ptr<ChooseStats> stats)
        : wrapped(std::move(wrapped)), stats(std::move(stats))
    {}

    const char *name() const override { return wrapped->name(); }

    UnitId
    choose(Scheduler &sched, const Task &task, UnitId creator) override
    {
        const auto t0 = Clock::now();
        const UnitId u = wrapped->choose(sched, task, creator);
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0).count());
        ++stats->calls;
        stats->ns += ns;
        ++stats->log2Hist[std::bit_width(ns)];
        return u;
    }

    bool
    usesSchedulingWindow() const override
    {
        return wrapped->usesSchedulingWindow();
    }
    bool stealing() const override { return wrapped->stealing(); }
    const SchedulingPolicy *inner() const override { return wrapped.get(); }

  private:
    std::unique_ptr<SchedulingPolicy> wrapped;
    std::shared_ptr<ChooseStats> stats;
};

/** Route @p cfg's policy through TimedPolicy, reporting into @p stats. */
void
timeChoose(SystemConfig &cfg, std::shared_ptr<ChooseStats> stats)
{
    const std::string innerName = cfg.sched.policyName.empty()
        ? builtinPolicyName(cfg.sched.policy)
        : cfg.sched.policyName;
    registerSchedulingPolicy(
        "bench-e2e-timed",
        [innerName, stats](const SystemConfig &c)
            -> std::unique_ptr<SchedulingPolicy> {
            return std::make_unique<TimedPolicy>(
                makeSchedulingPolicy(innerName, c), stats);
        });
    cfg.sched.policyName = "bench-e2e-timed";
}

/** One traced span; ids are unique per cell, parent 0 is the root. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int id;
    int parent;
    /** Extra JSON members for the args object (may be empty). */
    std::string args;
};

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write trace file ", path);
    const Clock::time_point origin = spans.front().start;
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? "," : "") << "\n{\"name\":\"" << s.name
           << "\",\"cat\":\"bench_e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
           << ",\"ts\":" << us(s.start) << ",\"dur\":"
           << us(s.end) - us(s.start) << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent
           << (s.args.empty() ? "" : ",") << s.args << "}}";
    }
    os << "\n]}\n";
}

// ---- Registry dump helpers ---------------------------------------------

/** FNV-1a (64-bit); of a registry dump, it is the cell's sim_digest. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** "name value" lines of a registry dump as a map. */
std::map<std::string, double>
parseDump(const std::string &dump)
{
    std::map<std::string, double> stats;
    std::istringstream is(dump);
    std::string name;
    double value = 0.0;
    while (is >> name >> value)
        stats[name] = value;
    return stats;
}

/** Sum of unitN.<suffix> over every unit. */
double
sumUnits(const std::map<std::string, double> &stats,
         const std::string &suffix)
{
    double sum = 0.0;
    for (const auto &[name, value] : stats)
        if (name.starts_with("unit") && name.ends_with("." + suffix)
            && name.find('.') + suffix.size() + 1 == name.size())
            sum += value;
    return sum;
}

double
statOr0(const std::map<std::string, double> &stats, const std::string &n)
{
    auto it = stats.find(n);
    return it == stats.end() ? 0.0 : it->second;
}

/** Samples-weighted mean of the per-unit dram.queueWaitNs distribution. */
double
dramQueueWaitMean(const std::map<std::string, double> &stats)
{
    const std::string samples = ".dram.queueWaitNs.samples";
    double sum = 0.0;
    double n = 0.0;
    for (const auto &[name, value] : stats)
        if (name.starts_with("unit") && name.ends_with(samples)) {
            const std::string unit =
                name.substr(0, name.size() - samples.size());
            sum += value * statOr0(stats, unit + ".dram.queueWaitNs.mean");
            n += value;
        }
    return ratio(sum, n);
}

// ---- One cell ------------------------------------------------------------

/** What a child reports back to the parent over its pipe. */
struct CellResult
{
    std::map<std::string, double> values;
    std::string digest;
    bool verifyOk = false;
    /** Tasks the functional re-run executed, and its verify(). */
    double functionalTasks = 0.0;
    bool functionalOk = false;
    /** Set by the parent. */
    std::uint64_t input = 0;
    bool traced = false;
    bool exitedOk = false;
};

/**
 * Run one cell in this (child) process. Host times are taken around
 * public entry points only; simulated values come from RunMetrics and
 * the registry dump.
 */
CellResult
runCell(const WorkloadDef &def, std::uint64_t seed, bool traced,
        const std::string &tracePath)
{
    std::vector<Span> spans;
    auto span = [&](const char *name, Clock::time_point a,
                    Clock::time_point b) {
        spans.push_back(
            {name, a, b, static_cast<int>(spans.size()) + 2, 1, ""});
    };

    CellResult r;
    auto &v = r.values;
    const WorkloadSpec spec = specFor(def, seed);
    SystemConfig cfg = configFor(def, seed);
    auto choose = std::make_shared<ChooseStats>();
    if (traced)
        timeChoose(cfg, choose);
    std::array<std::uint64_t, 5> levels{};

    // The end-to-end host times are scaled to a host of nominal speed,
    // measured right before the cell; per-layer times stay as measured.
    const double refS = referenceSeconds();
    const double speed = referenceNominalS / refS;
    v["bench.host_ref_s"] = refS;

    const auto tCell = Clock::now();
    RunMetrics m;
    std::string dump;
    double runS = 0.0;
    std::vector<std::uint64_t> servedKeys;
    {
        auto wl = makeWorkload(spec);
        const auto tMade = Clock::now();
        NdpSystem sys(cfg);
        const auto tBuilt = Clock::now();
        if (traced)
            sys.accessPath().setLevelObserver(
                [&levels](const AccessRequest &, AccessLevel l, Tick) {
                    ++levels[static_cast<std::size_t>(l)];
                });
        m = sys.run(*wl);
        const auto tRan = Clock::now();
        r.verifyOk = wl->verify();
        const auto tVerified = Clock::now();
        std::ostringstream os;
        sys.statsRegistry().dump(os);
        dump = os.str();
        const auto tDumped = Clock::now();
        if (const auto *svc = dynamic_cast<const QueryService *>(wl.get()))
            for (const auto &rec : svc->servedRecords())
                servedKeys.push_back(rec.key);

        runS = secondsBetween(tBuilt, tRan);
        v["workloads.make_s"] = secondsBetween(tCell, tMade);
        v["core.construct_s"] = secondsBetween(tMade, tBuilt);
        v["setup_s"] = secondsBetween(tCell, tBuilt) * speed;
        v["core.run_s"] = runS;
        v["workloads.verify_s"] = secondsBetween(tRan, tVerified);
        v["obs.dump_s"] = secondsBetween(tVerified, tDumped);
        span("workloads.make", tCell, tMade);
        span("core.construct", tMade, tBuilt);
        span("core.run", tBuilt, tRan);
        span("workloads.verify", tRan, tVerified);
        span("obs.dump", tVerified, tDumped);
    }

    // The same task set (for serving: the same admitted requests) on a
    // fresh instance with no timing model: it must verify, and its task
    // count must match the simulated run's.
    const auto tFunc = Clock::now();
    {
        auto fresh = makeWorkload(spec);
        SimAllocator alloc(cfg);
        fresh->setup(alloc);
        ImmediateExecutor exec(*fresh);
        if (auto *svc = dynamic_cast<QueryService *>(fresh.get());
            svc && def.requests > 0) {
            svc->beginServing(servedKeys.size());
            for (std::uint64_t seq = 0; seq < servedKeys.size(); ++seq)
                exec.enqueueTask(svc->makeQueryTask(servedKeys[seq], seq));
        } else {
            fresh->emitInitialTasks(exec);
        }
        exec.runToCompletion();
        r.functionalTasks = static_cast<double>(exec.enqueued());
        r.functionalOk = fresh->verify();
    }
    const auto tEnd = Clock::now();
    span("workloads.functional", tFunc, tEnd);
    v["workloads.functional_s"] = secondsBetween(tFunc, tEnd);
    v["cell_s"] = secondsBetween(tCell, tEnd) * speed;

    const double chooseS = static_cast<double>(choose->ns) * 1e-9;
    v["core.run_self_s"] = runS - chooseS;
    v["sched.choose_s"] = chooseS;
    v["sched.choose_calls"] = static_cast<double>(choose->calls);
    v["sched.choose_ns"] = ratio(static_cast<double>(choose->ns),
                                 static_cast<double>(choose->calls));
    v["events_per_s"] =
        ratio(static_cast<double>(m.simEvents), runS * speed);

    const auto stats = parseDump(dump);
    r.digest = hex64(fnv1a(dump));
    v["sim_time_us"] = static_cast<double>(m.ticks) * 1e-6;
    v["sim_energy_uj"] = m.energy.total() * 1e-6;
    v["serve_p50_ns"] = m.servingP50Ns;
    v["serve_p99_ns"] = m.servingP99Ns;
    v["serve_p999_ns"] = m.servingP999Ns;
    v["serve_goodput_qps"] = m.servingGoodputQps;

    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    v["core.tasks"] = count(m.tasks);
    v["core.epochs"] = count(m.epochs);
    v["core.forwarded_tasks"] = count(m.forwardedTasks);
    v["core.utilization"] = m.utilization();
    v["core.load_imbalance"] = statOr0(stats, "system.loadImbalance");
    for (std::size_t i = 0; i < levels.size(); ++i)
        v[std::string("core.access.")
          + accessLevelName(static_cast<AccessLevel>(i))] =
            count(levels[i]);
    v["sched.decisions"] = count(m.schedDecisions);
    v["sched.exchanges"] = statOr0(stats, "sched.exchanges");
    v["lb.shed_intra"] = count(m.tasksShedIntra);
    v["lb.shed_inter"] = count(m.tasksShedInter);
    v["lb.blocks_migrated"] = count(m.blocksMigrated);
    v["lb.migration_bytes"] = count(m.migrationTrafficBytes);
    v["cache.camp_hit_rate"] = m.campHitRate();
    v["cache.traveller_insertions"] =
        sumUnits(stats, "traveller.insertions");
    v["cache.traveller_bypasses"] = sumUnits(stats, "traveller.bypasses");
    v["cache.pb_useful_frac"] =
        ratio(count(m.pbHits), sumUnits(stats, "pb.fills"));
    v["cache.pb_late_hits"] = count(m.pbLateHits);
    v["cache.l1d_miss_rate"] =
        ratio(count(m.l1Misses), count(m.l1Hits + m.l1Misses));
    v["mem.dram_reads"] = count(m.dramReads);
    v["mem.dram_writes"] = count(m.dramWrites);
    v["mem.dram_row_hit_rate"] =
        ratio(count(m.dramRowHits), count(m.dramRowHits + m.dramRowMisses));
    v["mem.dram_act_stalls"] = count(m.dramActStalls);
    v["mem.dram_queue_wait_ns_mean"] = dramQueueWaitMean(stats);
    v["mem.read_latency_ns_mean"] = m.readLatMeanNs;
    v["net.packets"] = statOr0(stats, "net.packets");
    v["net.inter_hops"] = count(m.interHops);
    v["net.link_wait_ns_mean"] = statOr0(stats, "net.linkWaitNs.mean");
    v["net.port_wait_ns_mean"] = statOr0(stats, "net.portWaitNs.mean");
    v["sim.events"] = count(m.simEvents);
    v["serve.injected"] = count(m.servingInjected);
    v["serve.rejected"] = count(m.servingRejected);
    v["serve.slo_misses"] = count(m.servingSloMisses);
    v["serve.windows"] = count(m.servingWindows);

    if (!tracePath.empty()) {
        spans.insert(spans.begin(), {"cell", tCell, tEnd, 1, 0, ""});
        for (Span &s : spans)
            if (s.name == "core.run") {
                std::ostringstream args;
                args << "\"choose_calls\":" << choose->calls
                     << ",\"choose_ns\":" << choose->ns
                     << ",\"self_ns\":"
                     << static_cast<std::uint64_t>((runS - chooseS) * 1e9)
                     << ",\"choose_log2_hist\":[";
                for (std::size_t k = 0; k < choose->log2Hist.size(); ++k)
                    args << (k ? "," : "") << choose->log2Hist[k];
                args << "]";
                s.args = args.str();
            }
        writeChromeTrace(tracePath, spans);
    }
    return r;
}

std::string
serialize(const CellResult &r)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "#digest " << r.digest << "\n#verify " << r.verifyOk
       << "\n#functional " << r.functionalTasks << " " << r.functionalOk
       << "\n";
    for (const auto &[name, value] : r.values)
        os << name << " " << value << "\n";
    return os.str();
}

CellResult
deserialize(const std::string &text)
{
    CellResult r;
    std::istringstream is(text);
    std::string key;
    while (is >> key) {
        if (key == "#digest")
            is >> r.digest;
        else if (key == "#verify")
            is >> r.verifyOk;
        else if (key == "#functional")
            is >> r.functionalTasks >> r.functionalOk;
        else
            is >> r.values[key];
    }
    return r;
}

/**
 * Fork a child that runs input @p input of @p def and pipes its result
 * back; wait for it and record its peak RSS.
 */
CellResult
forkCell(const WorkloadDef &def, std::uint64_t seed, std::uint64_t input,
         bool traced, const std::string &tracePath)
{
    std::cout.flush();
    std::cerr.flush();
    int fds[2];
    if (pipe(fds) != 0)
        fatal("pipe() failed");
    const pid_t pid = fork();
    if (pid < 0)
        fatal("fork() failed");
    if (pid == 0) {
        close(fds[0]);
        const std::string out =
            serialize(runCell(def, inputSeed(seed, input), traced,
                              tracePath));
        std::size_t off = 0;
        while (off < out.size()) {
            const ssize_t n =
                write(fds[1], out.data() + off, out.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(2);
            off += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        std::cout.flush();
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            text.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0)
        if (errno != EINTR)
            fatal("wait4() failed");
    CellResult r = deserialize(text);
    r.input = input;
    r.traced = traced;
    r.exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0
        && !r.digest.empty();
    r.values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r;
}

// ---- Aggregation and reporting -------------------------------------------

struct Summary
{
    double value = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

Summary
summarize(const std::vector<double> &xs, double value)
{
    if (xs.empty())
        return {};
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    return {value, *lo, *hi, xs.size()};
}

/** Everything reported for one workload. */
struct WorkloadReport
{
    std::vector<std::pair<const MetricDef *, Summary>> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** FNV-1a over the per-input registry digests, in input order. */
    std::string digest;
    std::vector<std::string> problems;
};

WorkloadReport
report(const WorkloadDef &def, const std::vector<CellResult> &cells)
{
    WorkloadReport rep;

    // Batch: a cell is one operation. Serving: a request is one, and a
    // rejected or SLO-missing request fails; so does every request of a
    // cell that failed a check.
    std::map<std::uint64_t, const CellResult *> firstOfInput;
    std::set<std::uint64_t> divergent;
    for (const CellResult &c : cells) {
        const std::string which = "input " + std::to_string(c.input)
            + (c.traced ? " traced" : "") + " cell";
        bool ok = c.exitedOk;
        if (!ok) {
            rep.problems.push_back(which + " did not complete");
        } else {
            if (!c.verifyOk)
                rep.problems.push_back(which + " failed verify()");
            if (!c.functionalOk)
                rep.problems.push_back(which
                                       + ": functional re-run failed "
                                         "verify()");
            const double tasks = c.values.at("core.tasks");
            if (c.functionalTasks != tasks)
                rep.problems.push_back(
                    which + ": functional task count "
                    + std::to_string(c.functionalTasks)
                    + " != core.tasks " + std::to_string(tasks));
            ok = c.verifyOk && c.functionalOk
                && c.functionalTasks == tasks;
            auto [it, first] = firstOfInput.emplace(c.input, &c);
            if (!first && it->second->digest != c.digest)
                divergent.insert(c.input);
        }
        if (def.requests == 0) {
            ++rep.attempted;
            rep.failed += ok ? 0 : 1;
        } else if (ok) {
            rep.attempted += static_cast<std::uint64_t>(
                c.values.at("serve.injected"));
            rep.failed += static_cast<std::uint64_t>(
                c.values.at("serve.rejected")
                + c.values.at("serve.slo_misses"));
        } else {
            rep.attempted += def.requests;
            rep.failed += def.requests;
        }
    }
    for (std::uint64_t input : divergent)
        rep.problems.push_back("input " + std::to_string(input)
                               + ": sim_digest differs between cells");
    if (!divergent.empty())
        rep.failed = rep.attempted;
    std::string digests;
    for (const auto &[input, c] : firstOfInput)
        digests += c->digest;
    rep.digest = hex64(fnv1a(digests));

    auto values = [&](const std::string &name, bool traced) {
        std::vector<double> xs;
        for (const CellResult &c : cells)
            if (c.exitedOk && c.traced == traced)
                xs.push_back(c.values.at(name));
        return xs;
    };
    const bool anyTraced = std::any_of(
        cells.begin(), cells.end(),
        [](const CellResult &c) { return c.traced; });

    for (const MetricDef &md : metricDefs()) {
        const std::string name = md.name;
        Summary s;
        if (name == "error_rate") {
            const double e = ratio(static_cast<double>(rep.failed),
                                   static_cast<double>(rep.attempted));
            s = {e, e, e, cells.size()};
        } else if (md.agg == Agg::Host) {
            const auto xs = values(name, false);
            s = summarize(xs, median(xs));
        } else if (md.agg == Agg::Sim) {
            std::vector<double> xs;
            for (const auto &[input, c] : firstOfInput)
                xs.push_back(c->values.at(name));
            double mean = 0.0;
            for (double x : xs)
                mean += x / static_cast<double>(xs.size());
            s = summarize(xs, mean);
        } else if (!anyTraced) {
            continue;
        } else if (name == "bench.trace_overhead_frac") {
            // Each traced cell directly follows its untraced twin, so
            // the pair shares the host's state at that moment.
            std::vector<double> xs;
            for (std::size_t k = 1; k < cells.size(); ++k)
                if (cells[k].traced && cells[k].exitedOk
                    && cells[k - 1].exitedOk)
                    xs.push_back(ratio(cells[k].values.at("cell_s"),
                                       cells[k - 1].values.at("cell_s"))
                                 - 1.0);
            s = summarize(xs, median(xs));
        } else {
            const auto xs = values(name, true);
            s = summarize(xs, median(xs));
        }
        rep.metrics.emplace_back(&md, s);
    }
    return rep;
}

void
printReport(std::ostream &os, const WorkloadDef &def,
            const WorkloadReport &rep)
{
    os << "\n== " << def.name << " (" << def.app << ", design "
       << designName(def.design) << ", " << memBackendName(def.backend)
       << " backend, "
       << (def.requests ? std::to_string(def.requests) + " requests"
                        : "scale " + std::to_string(def.scale))
       << ", " << inputsPerSeed << " inputs)\n";
    os << std::setprecision(6);
    for (const auto &[md, s] : rep.metrics) {
        os << "  " << std::left << std::setw(30) << md->name << std::right
           << std::setw(14) << s.value << " " << std::left << std::setw(10)
           << md->unit << std::right << " n=" << s.n;
        if (s.n > 1)
            os << "  [" << s.min << ", " << s.max << "]";
        os << "\n";
    }
    os << "  " << std::left << std::setw(30) << "sim_digest" << std::right
       << std::setw(14) << rep.digest << "\n"
       << "  attempted " << rep.attempted << ", failed " << rep.failed
       << "\n";
    for (const std::string &p : rep.problems)
        os << "  CHECK FAILED: " << p << "\n";
}

void
writeJson(std::ostream &os, std::uint64_t seed,
          const std::vector<WorkloadDef> &defs,
          const std::vector<WorkloadReport> &reps)
{
    os << std::setprecision(17) << "{\"seed\":" << seed
       << ",\"inputs\":" << inputsPerSeed << ",\"workloads\":{";
    for (std::size_t w = 0; w < defs.size(); ++w) {
        os << (w ? "," : "") << "\n\"" << defs[w].name << "\":{";
        const auto &metrics = reps[w].metrics;
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &[md, s] = metrics[i];
            os << (i ? "," : "") << "\n  \"" << md->name
               << "\":{\"value\":" << s.value << ",\"unit\":\"" << md->unit
               << "\",\"n\":" << s.n << ",\"min\":" << s.min
               << ",\"max\":" << s.max << "}";
        }
        os << "}";
    }
    os << "},\n\"cells\":{";
    for (std::size_t w = 0; w < defs.size(); ++w)
        os << (w ? "," : "") << "\n\"" << defs[w].name
           << "\":{\"attempted\":" << reps[w].attempted
           << ",\"failed\":" << reps[w].failed << ",\"correct\":"
           << (reps[w].problems.empty() ? "true" : "false")
           << ",\"sim_digest\":\"" << reps[w].digest << "\"}";
    os << "}}\n";
}

/** Metric names listed in the @p key array of a BENCHMARK.json. */
std::set<std::string>
declaredNames(const std::string &json, const std::string &key)
{
    std::set<std::string> names;
    const auto at = json.find("\"" + key + "\"");
    if (at == std::string::npos)
        fatal("declared-metrics file has no \"", key, "\" list");
    const auto end = json.find(']', at);
    for (auto p = json.find("\"name\"", at); p < end;
         p = json.find("\"name\"", p + 1)) {
        const auto q1 = json.find('"', json.find(':', p));
        const auto q2 = json.find('"', q1 + 1);
        names.insert(json.substr(q1 + 1, q2 - q1 - 1));
    }
    return names;
}

/**
 * Compare the emitted metric names with a BENCHMARK.json: every
 * emitted name must be declared, every end_to_end name emitted, and
 * with tracing every per_layer name emitted too.
 */
std::vector<std::string>
checkDeclared(const std::string &path, bool traced,
              const WorkloadReport &rep)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read declared metrics from ", path);
    std::stringstream ss;
    ss << is.rdbuf();
    const auto e2e = declaredNames(ss.str(), "end_to_end");
    const auto layer = declaredNames(ss.str(), "per_layer");
    std::set<std::string> emitted;
    for (const auto &[md, s] : rep.metrics)
        emitted.insert(md->name);

    std::vector<std::string> problems;
    for (const std::string &n : emitted)
        if (!e2e.count(n) && !layer.count(n))
            problems.push_back("emits undeclared metric " + n);
    for (const std::string &n : e2e)
        if (!emitted.count(n))
            problems.push_back("omits declared end_to_end metric " + n);
    if (traced)
        for (const std::string &n : layer)
            if (!emitted.count(n))
                problems.push_back("omits declared per_layer metric " + n);
    return problems;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags(argc, argv);
    const std::uint64_t seed = flags.getUint("seed", 42);
    const std::uint64_t reps =
        std::max<std::uint64_t>(1, flags.getUint("reps", 3));
    const double budget = flags.getDouble("seconds", 0.0);
    const std::string outPath = flags.getString("out", "");
    const std::string traceDir = flags.getString("trace", "");
    const std::string declared = flags.getString("declared", "");
    const bool smoke = flags.getBool("smoke", false);

    std::vector<WorkloadDef> defs;
    for (const WorkloadDef &d : workloadDefs())
        defs.push_back(smoke ? smokeDef(d) : d);
    const std::string only = flags.getString("workload", "");
    if (!only.empty()) {
        auto it = std::find_if(
            defs.begin(), defs.end(),
            [&](const WorkloadDef &d) { return only == d.name; });
        if (it == defs.end())
            fatal("unknown --workload '", only,
                  "' (expected pr-O, pr-HLBmig, pr-B or kv-serve)");
        defs = {*it};
    }
    if (!traceDir.empty())
        std::filesystem::create_directories(traceDir);

    // After the first --reps rounds, another round starts only if a
    // round of untraced cells as long as the last one still fits the
    // budget.
    const bool tracing = !traceDir.empty();
    std::vector<std::vector<CellResult>> cells(defs.size());
    const auto start = Clock::now();
    double lastRound = 0.0;
    for (std::uint64_t round = 0;; ++round) {
        if (round >= reps
            && secondsBetween(start, Clock::now()) + lastRound > budget)
            break;
        lastRound = 0.0;
        for (std::size_t w = 0; w < defs.size(); ++w)
            for (std::uint64_t i = 0; i < inputsPerSeed; ++i) {
                const auto c0 = Clock::now();
                cells[w].push_back(forkCell(defs[w], seed, i, false, ""));
                lastRound += secondsBetween(c0, Clock::now());
                if (tracing && round == 0)
                    cells[w].push_back(forkCell(
                        defs[w], seed, i, true,
                        i == 0 ? traceDir + "/" + defs[w].name
                                + ".trace.json"
                               : ""));
            }
    }

    std::vector<WorkloadReport> reports;
    bool allOk = true;
    for (std::size_t w = 0; w < defs.size(); ++w) {
        WorkloadReport rep = report(defs[w], cells[w]);
        if (!declared.empty())
            for (const std::string &p :
                 checkDeclared(declared, tracing, rep))
                rep.problems.push_back(p);
        allOk = allOk && rep.problems.empty();
        printReport(std::cout, defs[w], rep);
        reports.push_back(std::move(rep));
    }

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        if (!out)
            fatal("cannot write ", outPath);
        writeJson(out, seed, defs, reports);
    }
    std::cout << "\nbench_e2e: "
              << (allOk ? "all checks passed" : "CHECKS FAILED")
              << " (seed " << seed << ", "
              << secondsBetween(start, Clock::now()) << " s)\n";
    return allOk ? 0 : 1;
}

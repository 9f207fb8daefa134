/**
 * @file
 * Seeded configuration fuzzer implementation: knob table (the single
 * source of truth for sampling bounds, JSON round-trip, and greedy
 * minimization), the metamorphic run harness, and the repro format.
 */

#include "check/config_fuzz.hh"

#include <cstddef>
#include <limits>
#include <sstream>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/ndp_system.hh"
#include "driver/cell_runner.hh"
#include "workloads/factory.hh"

namespace abndp
{
namespace check
{

namespace
{

std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

/** How a repro value's parse errors name its key. */
std::string
reproKey(const char *key)
{
    return std::string("fuzz repro: key '") + key + "'";
}

/** Parse a decimal repro value into an unsigned field of type T. */
template <typename T>
T
parseUintKnob(const char *key, const std::string &v)
{
    const std::uint64_t x = parseUint(reproKey(key), v, 10);
    if (x > std::numeric_limits<T>::max())
        fatal(reproKey(key), ": '", v, "' does not fit its ",
              8 * sizeof(T), "-bit field");
    return static_cast<T>(x);
}

std::string
fmtDouble(double v)
{
    // Hexfloat round-trips exactly; a lossy repro would replay a
    // different machine than the one that failed.
    std::ostringstream oss;
    oss << std::hexfloat << v;
    return oss.str();
}

std::string
fmtBool(bool v)
{
    return v ? "true" : "false";
}

bool
parseBool(const std::string &v)
{
    if (v == "true")
        return true;
    if (v == "false")
        return false;
    fatal("fuzz repro: bad bool value '", v, "'");
    return false;
}

const char *
replName(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::Lru: return "lru";
      case ReplPolicy::Random: return "random";
      case ReplPolicy::Fifo: return "fifo";
    }
    return "lru";
}

ReplPolicy
replFromName(const std::string &v)
{
    if (v == "lru")
        return ReplPolicy::Lru;
    if (v == "random")
        return ReplPolicy::Random;
    if (v == "fifo")
        return ReplPolicy::Fifo;
    fatal("fuzz repro: bad replacement policy '", v, "'");
    return ReplPolicy::Lru;
}

const char *
topoName(IntraTopology t)
{
    return t == IntraTopology::Ring ? "ring" : "crossbar";
}

IntraTopology
topoFromName(const std::string &v)
{
    if (v == "crossbar")
        return IntraTopology::Crossbar;
    if (v == "ring")
        return IntraTopology::Ring;
    fatal("fuzz repro: bad intra topology '", v, "'");
    return IntraTopology::Crossbar;
}

const char *
profileName(RateProfile p)
{
    switch (p) {
      case RateProfile::Constant: return "constant";
      case RateProfile::Bursty: return "bursty";
      case RateProfile::Diurnal: return "diurnal";
    }
    return "constant";
}

RateProfile
profileFromName(const std::string &v)
{
    if (v == "constant")
        return RateProfile::Constant;
    if (v == "bursty")
        return RateProfile::Bursty;
    if (v == "diurnal")
        return RateProfile::Diurnal;
    fatal("fuzz repro: bad rate profile '", v, "'");
    return RateProfile::Constant;
}

/**
 * One mutable configuration knob: a dotted JSON key plus string
 * accessors. The table drives serialization and minimization, so a
 * knob added to the sampler but not here would silently fall out of
 * repro files — keep them in sync.
 */
struct Knob
{
    const char *key;
    std::string (*get)(const SystemConfig &);
    void (*set)(SystemConfig &, const std::string &);
};

#define ABNDP_UINT_KNOB(key, field)                                     \
    { key,                                                              \
      [](const SystemConfig &c) {                                       \
          return fmtU64(static_cast<std::uint64_t>(c.field));           \
      },                                                                \
      [](SystemConfig &c, const std::string &v) {                       \
          c.field = parseUintKnob<decltype(c.field)>(key, v);           \
      } }

#define ABNDP_DOUBLE_KNOB(key, field)                                   \
    { key,                                                              \
      [](const SystemConfig &c) { return fmtDouble(c.field); },         \
      [](SystemConfig &c, const std::string &v) {                       \
          c.field = parseDouble(reproKey(key), v);                      \
      } }

#define ABNDP_BOOL_KNOB(key, field)                                     \
    { key,                                                              \
      [](const SystemConfig &c) { return fmtBool(c.field); },           \
      [](SystemConfig &c, const std::string &v) {                       \
          c.field = parseBool(v);                                       \
      } }

#define ABNDP_REPL_KNOB(key, field)                                     \
    { key,                                                              \
      [](const SystemConfig &c) {                                       \
          return std::string(replName(c.field));                        \
      },                                                                \
      [](SystemConfig &c, const std::string &v) {                       \
          c.field = replFromName(v);                                    \
      } }

const std::vector<Knob> &
knobTable()
{
    static const std::vector<Knob> table = {
        ABNDP_UINT_KNOB("meshX", meshX),
        ABNDP_UINT_KNOB("meshY", meshY),
        ABNDP_UINT_KNOB("unitsPerStack", unitsPerStack),
        ABNDP_UINT_KNOB("coresPerUnit", coresPerUnit),
        ABNDP_DOUBLE_KNOB("coreFreqGHz", coreFreqGHz),
        ABNDP_UINT_KNOB("memBytesPerUnit", memBytesPerUnit),
        ABNDP_UINT_KNOB("l1d.sizeBytes", l1d.sizeBytes),
        ABNDP_UINT_KNOB("l1d.assoc", l1d.assoc),
        ABNDP_REPL_KNOB("l1d.repl", l1d.repl),
        ABNDP_UINT_KNOB("prefetchBufBytes", prefetchBufBytes),
        ABNDP_UINT_KNOB("tlb.entries", tlb.entries),
        ABNDP_BOOL_KNOB("tlb.enabled", tlb.enabled),
        ABNDP_UINT_KNOB("dram.busBits", dram.busBits),
        ABNDP_UINT_KNOB("dram.banks", dram.banks),
        ABNDP_UINT_KNOB("dram.rowBytes", dram.rowBytes),
        ABNDP_DOUBLE_KNOB("dram.busGHz", dram.busGHz),
        ABNDP_DOUBLE_KNOB("dram.tCasNs", dram.tCasNs),
        ABNDP_DOUBLE_KNOB("dram.tRcdNs", dram.tRcdNs),
        ABNDP_DOUBLE_KNOB("dram.tRpNs", dram.tRpNs),
        ABNDP_BOOL_KNOB("dram.refreshEnabled", dram.refreshEnabled),
        { "dram.backend",
          [](const SystemConfig &c) {
              return std::string(memBackendName(c.dram.backend));
          },
          [](SystemConfig &c, const std::string &v) {
              c.dram.backend = memBackendFromName(v);
          } },
        { "dram.pagePolicy",
          [](const SystemConfig &c) {
              return std::string(pagePolicyName(c.dram.pagePolicy));
          },
          [](SystemConfig &c, const std::string &v) {
              c.dram.pagePolicy = pagePolicyFromName(v);
          } },
        { "dram.addrMap",
          [](const SystemConfig &c) {
              return std::string(dramAddrMapName(c.dram.addrMap));
          },
          [](SystemConfig &c, const std::string &v) {
              c.dram.addrMap = dramAddrMapFromName(v);
          } },
        ABNDP_UINT_KNOB("dram.bankGroups", dram.bankGroups),
        ABNDP_UINT_KNOB("dram.burstBytes", dram.burstBytes),
        ABNDP_DOUBLE_KNOB("dram.tRasNs", dram.tRasNs),
        ABNDP_DOUBLE_KNOB("dram.tWrNs", dram.tWrNs),
        ABNDP_DOUBLE_KNOB("dram.tFawNs", dram.tFawNs),
        { "net.intraTopology",
          [](const SystemConfig &c) {
              return std::string(topoName(c.net.intraTopology));
          },
          [](SystemConfig &c, const std::string &v) {
              c.net.intraTopology = topoFromName(v);
          } },
        ABNDP_UINT_KNOB("traveller.ratioDenom", traveller.ratioDenom),
        ABNDP_UINT_KNOB("traveller.assoc", traveller.assoc),
        ABNDP_UINT_KNOB("traveller.campCount", traveller.campCount),
        ABNDP_DOUBLE_KNOB("traveller.bypassProb", traveller.bypassProb),
        ABNDP_REPL_KNOB("traveller.repl", traveller.repl),
        ABNDP_BOOL_KNOB("traveller.skewedMapping",
                        traveller.skewedMapping),
        ABNDP_UINT_KNOB("sched.prefetchWindow", sched.prefetchWindow),
        ABNDP_UINT_KNOB("sched.schedulingWindow",
                        sched.schedulingWindow),
        ABNDP_UINT_KNOB("sched.stealBatch", sched.stealBatch),
        ABNDP_UINT_KNOB("sched.missPipelineDepth",
                        sched.missPipelineDepth),
        ABNDP_UINT_KNOB("sched.exchangeIntervalCycles",
                        sched.exchangeIntervalCycles),
        ABNDP_BOOL_KNOB("sched.exhaustiveScoring",
                        sched.exhaustiveScoring),
        { "lb.intraTier",
          [](const SystemConfig &c) {
              return std::string(lbTierName(c.lb.intraTier));
          },
          [](SystemConfig &c, const std::string &v) {
              c.lb.intraTier = lbTierFromName(v);
          } },
        { "lb.interTier",
          [](const SystemConfig &c) {
              return std::string(lbTierName(c.lb.interTier));
          },
          [](SystemConfig &c, const std::string &v) {
              c.lb.interTier = lbTierFromName(v);
          } },
        ABNDP_UINT_KNOB("lb.hotK", lb.hotK),
        ABNDP_UINT_KNOB("lb.decayShift", lb.decayShift),
        ABNDP_UINT_KNOB("lb.idleThreshold", lb.idleThreshold),
        ABNDP_UINT_KNOB("lb.chunkSize", lb.chunkSize),
        ABNDP_DOUBLE_KNOB("lb.reserveFrac", lb.reserveFrac),
        ABNDP_UINT_KNOB("lb.migration.threshold",
                        lb.migration.threshold),
        ABNDP_UINT_KNOB("lb.migration.cooldownWindows",
                        lb.migration.cooldownWindows),
        ABNDP_UINT_KNOB("lb.migration.maxPerExchange",
                        lb.migration.maxPerExchange),
        ABNDP_UINT_KNOB("fault.unitFailure.count",
                        fault.unitFailure.count),
        ABNDP_DOUBLE_KNOB("fault.unitFailure.failAtNs",
                          fault.unitFailure.failAtNs),
        ABNDP_DOUBLE_KNOB("fault.unitFailure.recoverAtNs",
                          fault.unitFailure.recoverAtNs),
        ABNDP_DOUBLE_KNOB("fault.unitFailure.ackTimeoutNs",
                          fault.unitFailure.ackTimeoutNs),
        ABNDP_DOUBLE_KNOB("fault.unitFailure.redispatchBackoffNs",
                          fault.unitFailure.redispatchBackoffNs),
        ABNDP_UINT_KNOB("fault.unitFailure.maxRedispatch",
                        fault.unitFailure.maxRedispatch),
        ABNDP_UINT_KNOB("serving.requests", serving.requests),
        ABNDP_DOUBLE_KNOB("serving.ratePerUs", serving.ratePerUs),
        { "serving.profile",
          [](const SystemConfig &c) {
              return std::string(profileName(c.serving.profile));
          },
          [](SystemConfig &c, const std::string &v) {
              c.serving.profile = profileFromName(v);
          } },
        ABNDP_DOUBLE_KNOB("serving.burstFactor", serving.burstFactor),
        ABNDP_DOUBLE_KNOB("serving.burstFraction",
                          serving.burstFraction),
        ABNDP_DOUBLE_KNOB("serving.burstPeriodUs",
                          serving.burstPeriodUs),
        ABNDP_DOUBLE_KNOB("serving.diurnalPeriodUs",
                          serving.diurnalPeriodUs),
        ABNDP_DOUBLE_KNOB("serving.diurnalDepth",
                          serving.diurnalDepth),
        ABNDP_DOUBLE_KNOB("serving.zipfS", serving.zipfS),
        ABNDP_UINT_KNOB("serving.tenants", serving.tenants),
        ABNDP_DOUBLE_KNOB("serving.sloNs", serving.sloNs),
        ABNDP_UINT_KNOB("serving.maxOutstanding",
                        serving.maxOutstanding),
        ABNDP_UINT_KNOB("seed", seed),
    };
    return table;
}

#undef ABNDP_UINT_KNOB
#undef ABNDP_DOUBLE_KNOB
#undef ABNDP_BOOL_KNOB
#undef ABNDP_REPL_KNOB

ReplPolicy
drawRepl(Rng &rng)
{
    switch (rng.below(3)) {
      case 0: return ReplPolicy::Lru;
      case 1: return ReplPolicy::Random;
      default: return ReplPolicy::Fifo;
    }
}

void
appendJsonPair(std::ostringstream &oss, const char *key,
               const std::string &value, bool last)
{
    oss << "  \"" << key << "\": \"" << value << '"'
        << (last ? "\n" : ",\n");
}

} // namespace

SystemConfig
minimalFuzzBaseline()
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 1;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 1;
    cfg.memBytesPerUnit = 1ull << 22;
    // groups = campCount + 1 = 2 divides the 2 units.
    cfg.traveller.campCount = 1;
    cfg.checkInvariants = true;
    return cfg;
}

FuzzCase
sampleFuzzCase(Rng &rng)
{
    FuzzCase c;
    SystemConfig &cfg = c.cfg;
    cfg = minimalFuzzBaseline();

    cfg.meshX = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.meshY = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.unitsPerStack = 2u << rng.below(2); // 2 or 4
    cfg.coresPerUnit = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.coreFreqGHz = rng.below(2) ? 2.0 : 1.0;
    cfg.memBytesPerUnit = 1ull << (22 + rng.below(2)); // 4 or 8 MB

    cfg.l1d.sizeBytes = 1ull << (14 + rng.below(3)); // 16..64 KB
    cfg.l1d.assoc = 2u << rng.below(2);
    cfg.l1d.repl = drawRepl(rng);
    cfg.prefetchBufBytes = 1ull << (10 + rng.below(3)); // 1..4 KB
    cfg.tlb.entries = 32u << rng.below(2);
    cfg.tlb.enabled = rng.below(4) != 0;

    cfg.dram = rng.below(2) ? DramConfig::hmc() : DramConfig::hbm();

    // Memory-backend axis (~1 case in 3): the bank-state DDR model
    // with randomized page policy, address map, bank grouping, and
    // the DDR-only timings. Validity is by construction: bankGroups
    // is drawn from the divisors of the organization's bank count,
    // burstBytes (32..128) divides every sampled rowBytes, tRAS
    // always covers tRCD, and the brc divisibility constraint holds
    // because both bank counts are powers of two dividing the
    // power-of-two memBytesPerUnit.
    if (rng.below(3) == 0) {
        auto &d = cfg.dram;
        d.backend = MemBackendKind::Ddr;
        switch (rng.below(3)) {
          case 0: d.pagePolicy = PagePolicy::Open; break;
          case 1: d.pagePolicy = PagePolicy::Close; break;
          default: d.pagePolicy = PagePolicy::Adaptive; break;
        }
        switch (rng.below(3)) {
          case 0: d.addrMap = DramAddrMapKind::RowBankColumn; break;
          case 1: d.addrMap = DramAddrMapKind::RowColumnBank; break;
          default: d.addrMap = DramAddrMapKind::BankRowColumn; break;
        }
        std::vector<std::uint32_t> groupDivisors;
        for (std::uint32_t g = 1; g <= d.banks; ++g)
            if (d.banks % g == 0)
                groupDivisors.push_back(g);
        d.bankGroups = groupDivisors[rng.below(groupDivisors.size())];
        d.burstBytes = 32u << rng.below(3);
        d.tRasNs = d.tRcdNs + 7.0 * static_cast<double>(rng.below(4));
        d.tWrNs = 5.0 * static_cast<double>(rng.below(4));
        d.tFawNs = 10.0 * static_cast<double>(rng.below(5)); // 0 = off
    }

    cfg.net.intraTopology = rng.below(2) ? IntraTopology::Ring
                                         : IntraTopology::Crossbar;

    cfg.traveller.ratioDenom = 1ull << (5 + rng.below(2)); // 32 or 64
    cfg.traveller.assoc = 2u << rng.below(2);
    // Draw the group count from the divisors >= 2 of the sampled unit
    // count, so validate()'s divisibility constraint holds by
    // construction.
    std::vector<std::uint32_t> groupChoices;
    for (std::uint32_t g = 2; g <= cfg.numUnits(); ++g)
        if (cfg.numUnits() % g == 0)
            groupChoices.push_back(g);
    cfg.traveller.campCount =
        groupChoices[rng.below(groupChoices.size())] - 1;
    cfg.traveller.bypassProb = 0.2 * static_cast<double>(rng.below(4));
    cfg.traveller.repl = drawRepl(rng);
    cfg.traveller.skewedMapping = rng.below(2) != 0;

    cfg.sched.prefetchWindow = 1 + static_cast<std::uint32_t>(rng.below(4));
    cfg.sched.schedulingWindow = 4u << rng.below(2);
    cfg.sched.stealBatch = 1 + static_cast<std::uint32_t>(rng.below(8));
    cfg.sched.missPipelineDepth =
        1 + static_cast<std::uint32_t>(rng.below(4));
    cfg.sched.exchangeIntervalCycles = 50000ull << rng.below(3);
    cfg.sched.exhaustiveScoring = rng.below(2) != 0;

    // Hierarchical-lb axis (~1 case in 3): diversify the balancer
    // composition and re-homing knobs. The enabled flags stay
    // design-controlled (runFuzzCase applies the HLB designs over
    // every case, which switches the balancer on regardless of the
    // sampled base), so this axis varies *which* machine the HLB
    // designs build, not *whether* one is built. At most one tier may
    // be none; every other combination is valid by construction.
    if (rng.below(3) == 0) {
        auto &lb = cfg.lb;
        auto draw_tier = [&rng](bool allow_none) {
            switch (rng.below(allow_none ? 4 : 3)) {
              case 0: return LbTierKind::Stealing;
              case 1: return LbTierKind::Average;
              case 2: return LbTierKind::Reserve;
              default: return LbTierKind::None;
            }
        };
        lb.intraTier = draw_tier(true);
        lb.interTier = draw_tier(lb.intraTier != LbTierKind::None);
        lb.hotK = 4u << rng.below(4); // 4..32
        lb.decayShift = static_cast<std::uint32_t>(rng.below(4));
        lb.idleThreshold = static_cast<std::uint32_t>(rng.below(4));
        lb.chunkSize = 1 + static_cast<std::uint32_t>(rng.below(8));
        lb.reserveFrac = 0.25 * static_cast<double>(rng.below(5));
        lb.migration.threshold =
            1 + static_cast<std::uint32_t>(rng.below(16));
        lb.migration.cooldownWindows =
            static_cast<std::uint32_t>(rng.below(8));
        lb.migration.maxPerExchange =
            1 + static_cast<std::uint32_t>(rng.below(16));
    }

    // Unit-failure axis (~1 case in 3): kill a strict minority of
    // units at a seeded time, half the time with a transient recovery
    // window. Leg 3 (design invariance) keeps holding because the
    // functional execution is placement-independent, and the armed
    // checkers enforce task conservation under failure.
    if (rng.below(3) == 0) {
        auto &uf = cfg.fault.unitFailure;
        uf.count = 1
            + static_cast<std::uint32_t>(rng.below(cfg.numUnits() / 2));
        uf.failAtNs = 100.0 * static_cast<double>(rng.below(20));
        if (rng.below(2) != 0)
            uf.recoverAtNs = uf.failAtNs
                + 200.0 * (1.0 + static_cast<double>(rng.below(10)));
        uf.ackTimeoutNs =
            500.0 * (1.0 + static_cast<double>(rng.below(8)));
        uf.redispatchBackoffNs =
            100.0 * static_cast<double>(rng.below(8));
        uf.maxRedispatch = 1 + static_cast<std::uint32_t>(rng.below(8));
    }

    cfg.seed = 1 + rng.below(1ull << 20);
    cfg.checkInvariants = true;

    const auto &names = allWorkloadNames();
    c.workload = names[rng.below(names.size())];

    // Serving axis (~1 case in 3): a short open-loop stream over one
    // of the point-query services. Rates stay modest and streams
    // short: the sampled machines are tiny (1-2 cores), and an
    // unsustainable rate is a watchdog fatal(), not a bug. Every
    // sampled combination satisfies validate() by construction.
    if (rng.below(3) == 0) {
        auto &sv = cfg.serving;
        sv.requests = 100ull << rng.below(3); // 100..400
        sv.ratePerUs = 1.0 + static_cast<double>(rng.below(4)); // 1..4
        switch (rng.below(3)) {
          case 0: sv.profile = RateProfile::Constant; break;
          case 1: sv.profile = RateProfile::Bursty; break;
          default: sv.profile = RateProfile::Diurnal; break;
        }
        sv.burstFactor = 2.0 * (1.0 + static_cast<double>(rng.below(2)));
        sv.burstFraction = 0.1 * (1.0 + static_cast<double>(rng.below(2)));
        sv.burstPeriodUs = 10.0 * (1.0 + static_cast<double>(rng.below(8)));
        sv.diurnalPeriodUs =
            50.0 * (1.0 + static_cast<double>(rng.below(8)));
        sv.diurnalDepth = 0.2 * static_cast<double>(rng.below(5));
        sv.zipfS = 0.33 * static_cast<double>(rng.below(4));
        sv.tenants = 1 + static_cast<std::uint32_t>(rng.below(4));
        sv.sloNs = 1000.0 * (1.0 + static_cast<double>(rng.below(8)));
        sv.maxOutstanding = rng.below(3) == 0 ? 0 : 32ull << rng.below(4);
        // Serving requires a QueryService workload (see serveRun).
        static const char *const served[] = {"kv", "knn", "sssp",
                                             "astar"};
        c.workload = served[rng.below(4)];
    }
    return c;
}

std::string
fuzzConfigError(const SystemConfig &cfg)
{
    for (Design d : ndpDesigns())
        if (auto e = applyDesign(cfg, d).validationError(); !e.empty())
            return std::string("design ") + designName(d) + ": " + e;
    return {};
}

FuzzReport
runFuzzCase(const FuzzCase &c, std::uint32_t threads)
{
    FuzzReport r;
    const auto &designs = ndpDesigns();
    const WorkloadSpec spec = WorkloadSpec::tiny(c.workload);

    // Leg 1: one sequential run per Table-2 NDP design, invariant
    // checkers armed (any conservation-law violation panics inside
    // run()), workload results checked against the sequential
    // reference.
    std::vector<RunMetrics> first(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        SystemConfig cfg = applyDesign(c.cfg, designs[i]);
        cfg.validate();
        NdpSystem sys(cfg);
        auto wl = makeWorkload(spec);
        RunMetrics &m = first[i];
        m = sys.run(*wl);
        // Wall clock is the one field two identical runs may differ in.
        m.hostSeconds = 0.0;
        if (!wl->verify()) {
            r.ok = false;
            r.message = std::string("workload '") + c.workload +
                "' failed verify() under design " +
                designName(designs[i]);
            return r;
        }

        // Serving metamorphic relation: every injected request is
        // accounted for exactly once — rejected at admission, served
        // directly, or served through the recovery path.
        if (cfg.serving.enabled()) {
            if (m.servingInjected != cfg.serving.requests) {
                r.ok = false;
                r.message = std::string("serving injected ") +
                    std::to_string(m.servingInjected) + " of " +
                    std::to_string(cfg.serving.requests) +
                    " configured requests under design " +
                    designName(designs[i]);
                return r;
            }
            if (m.servingInjected != m.servingRejected
                    + m.servingCompletedDirect
                    + m.servingCompletedRecovered) {
                r.ok = false;
                r.message = std::string("serving conservation broken "
                    "under design ") + designName(designs[i]) + ": " +
                    std::to_string(m.servingInjected) + " injected != " +
                    std::to_string(m.servingRejected) + " rejected + " +
                    std::to_string(m.servingCompletedDirect) +
                    " direct + " +
                    std::to_string(m.servingCompletedRecovered) +
                    " recovered";
                return r;
            }
        }
    }

    // Leg 2 (metamorphic): the same configs rerun through the parallel
    // grid runner must reproduce the whole result bit-exactly (every
    // RunMetrics field but the wall clock) — this pins both run-to-run
    // determinism and thread-count independence at once (threads <= 1
    // degrades to a sequential rerun).
    std::vector<CellSpec> cells(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        cells[i].design = designs[i];
        cells[i].workload = spec;
        cells[i].opts.verify = false;
    }
    std::vector<RunMetrics> rerun = runCells(c.cfg, cells, threads);
    for (std::size_t i = 0; i < designs.size(); ++i) {
        rerun[i].hostSeconds = 0.0;
        if (rerun[i] != first[i]) {
            r.ok = false;
            r.message = std::string("metrics diverge between "
                                    "sequential and ") +
                std::to_string(threads) + "-thread reruns under design " +
                designName(designs[i]) + " (broken determinism)";
            return r;
        }
    }

    // Leg 3 (metamorphic): scheduling and caching are performance
    // features; the functional execution — tasks spawned, epochs run —
    // must be identical across every NDP design. Serving runs are
    // exempt: admission (hence the task count) and the window count
    // depend on each design's latency, by design.
    if (c.cfg.serving.enabled())
        return r;
    for (std::size_t i = 1; i < designs.size(); ++i) {
        if (first[i].tasks != first[0].tasks
            || first[i].epochs != first[0].epochs) {
            r.ok = false;
            r.message = std::string("design ") + designName(designs[i]) +
                " ran " + std::to_string(first[i].tasks) + " tasks / " +
                std::to_string(first[i].epochs) + " epochs but design " +
                designName(designs[0]) + " ran " +
                std::to_string(first[0].tasks) + " / " +
                std::to_string(first[0].epochs) +
                " (functional execution must be design-invariant)";
            return r;
        }
    }
    return r;
}

std::string
fuzzCaseToJson(const FuzzCase &c)
{
    std::ostringstream oss;
    oss << "{\n";
    appendJsonPair(oss, "workload", c.workload, false);
    const auto &table = knobTable();
    for (std::size_t i = 0; i < table.size(); ++i)
        appendJsonPair(oss, table[i].key, table[i].get(c.cfg),
                       i + 1 == table.size());
    oss << "}\n";
    return oss.str();
}

FuzzCase
fuzzCaseFromJson(const std::string &json)
{
    FuzzCase c;
    c.cfg = minimalFuzzBaseline();

    // The repro format is flat string pairs ("key": "value"), so a
    // hand-rolled scanner suffices; anything else is a malformed repro.
    std::size_t pos = 0;
    bool sawAny = false;
    while (true) {
        std::size_t k0 = json.find('"', pos);
        if (k0 == std::string::npos)
            break;
        std::size_t k1 = json.find('"', k0 + 1);
        if (k1 == std::string::npos)
            fatal("fuzz repro: unterminated key at offset ", k0);
        std::string key = json.substr(k0 + 1, k1 - k0 - 1);
        std::size_t colon = json.find(':', k1 + 1);
        if (colon == std::string::npos)
            fatal("fuzz repro: missing ':' after key '", key, "'");
        std::size_t v0 = json.find('"', colon + 1);
        if (v0 == std::string::npos)
            fatal("fuzz repro: missing value for key '", key, "'");
        std::size_t v1 = json.find('"', v0 + 1);
        if (v1 == std::string::npos)
            fatal("fuzz repro: unterminated value for key '", key, "'");
        std::string value = json.substr(v0 + 1, v1 - v0 - 1);
        pos = v1 + 1;
        sawAny = true;

        if (key == "workload") {
            c.workload = value;
            continue;
        }
        bool matched = false;
        for (const Knob &k : knobTable()) {
            if (key == k.key) {
                k.set(c.cfg, value);
                matched = true;
                break;
            }
        }
        if (!matched)
            fatal("fuzz repro: unknown key '", key, "'");
    }
    if (!sawAny)
        fatal("fuzz repro: no key/value pairs found");
    c.cfg.checkInvariants = true;
    return c;
}

SystemConfig
minimizeConfig(const SystemConfig &failing,
               const std::function<bool(const SystemConfig &)> &stillFails)
{
    const SystemConfig baseline = minimalFuzzBaseline();
    SystemConfig cur = failing;
    // Greedy fixpoint: resetting one knob can unlock another (e.g. a
    // smaller mesh makes more campCounts resettable), so sweep until a
    // full pass keeps everything.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Knob &k : knobTable()) {
            const std::string want = k.get(baseline);
            if (k.get(cur) == want)
                continue;
            SystemConfig candidate = cur;
            k.set(candidate, want);
            if (!fuzzConfigError(candidate).empty())
                continue;
            if (stillFails(candidate)) {
                cur = candidate;
                changed = true;
            }
        }
    }
    return cur;
}

} // namespace check
} // namespace abndp

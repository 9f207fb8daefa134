/**
 * @file
 * The seeded config fuzzer module (src/check/config_fuzz.hh): sampler
 * validity over many draws, repro JSON round-trip, greedy minimizer
 * behaviour on a synthetic predicate, and a full runFuzzCase smoke.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/config_fuzz.hh"
#include "common/rng.hh"
#include "core/metrics.hh"

namespace abndp
{

TEST(ConfigFuzz, BaselineIsValid)
{
    SystemConfig cfg = check::minimalFuzzBaseline();
    EXPECT_EQ(check::fuzzConfigError(cfg), "");
    cfg.validate(); // would fatal() on inconsistency
    EXPECT_TRUE(cfg.checkInvariants);
}

TEST(ConfigFuzz, SamplerProducesValidVariedConfigs)
{
    Rng rng(0xf022u);
    std::set<std::string> jsons;
    for (int i = 0; i < 200; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        ASSERT_EQ(check::fuzzConfigError(c.cfg), "") << "draw " << i;
        c.cfg.validate(); // must never fatal(): validity by construction
        EXPECT_TRUE(c.cfg.checkInvariants);
        EXPECT_EQ(c.cfg.numUnits() % c.cfg.numGroups(), 0u);
        EXPECT_FALSE(c.workload.empty());
        jsons.insert(check::fuzzCaseToJson(c));
    }
    // The space is large; 200 draws collapsing to a handful of
    // distinct configs would mean the sampler is broken.
    EXPECT_GT(jsons.size(), 150u);
}

TEST(ConfigFuzz, SamplerIsDeterministic)
{
    Rng a(77), b(77);
    for (int i = 0; i < 20; ++i) {
        check::FuzzCase ca = check::sampleFuzzCase(a);
        check::FuzzCase cb = check::sampleFuzzCase(b);
        EXPECT_EQ(check::fuzzCaseToJson(ca), check::fuzzCaseToJson(cb));
        EXPECT_EQ(ca.workload, cb.workload);
    }
}

TEST(ConfigFuzz, JsonRoundTripsEveryKnob)
{
    Rng rng(0x10adu);
    for (int i = 0; i < 50; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        std::string json = check::fuzzCaseToJson(c);
        check::FuzzCase back = check::fuzzCaseFromJson(json);
        EXPECT_EQ(back.workload, c.workload);
        // Re-serialization canonicalizes: equality here means every
        // knob survived the trip (including hexfloat doubles).
        EXPECT_EQ(check::fuzzCaseToJson(back), json) << "draw " << i;
    }
}

TEST(ConfigFuzzDeath, JsonRejectsUnknownKeyAndGarbage)
{
    EXPECT_DEATH(check::fuzzCaseFromJson("{\"bogusKnob\": \"1\"}"),
                 "unknown key");
    EXPECT_DEATH(check::fuzzCaseFromJson("no pairs here"),
                 "no key/value pairs");
}

TEST(ConfigFuzzDeath, JsonRejectsMalformedNumbers)
{
    // Parsed unchecked, each would throw, wrap to a huge allocation,
    // or replay a different machine from the one the file names.
    auto replay = [](const char *key, const char *value) {
        check::fuzzCaseFromJson(std::string("{\"") + key + "\": \"" +
                                value + "\"}");
    };
    const auto exit1 = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(replay("meshX", "abc"), exit1,
                "fatal: fuzz repro: key 'meshX': 'abc' is not an "
                "unsigned integer");
    EXPECT_EXIT(replay("meshX", "-1"), exit1,
                "key 'meshX': '-1' is not an unsigned integer");
    EXPECT_EXIT(replay("meshX", "4x"), exit1, "'4x' is not an unsigned");
    EXPECT_EXIT(replay("meshX", ""), exit1, "'' is not an unsigned");
    EXPECT_EXIT(replay("meshX", "4294967298"), exit1,
                "key 'meshX': '4294967298' does not fit its 32-bit field");
    EXPECT_EXIT(replay("seed", "18446744073709551616"), exit1,
                "key 'seed': '18446744073709551616' does not fit in 64 "
                "bits");
    EXPECT_EXIT(replay("coreFreqGHz", "fast"), exit1,
                "key 'coreFreqGHz': 'fast' is not a number");
    EXPECT_EXIT(replay("coreFreqGHz", "nan"), exit1,
                "key 'coreFreqGHz': 'nan' is not finite");
}

TEST(ConfigFuzz, JsonAcceptsFullWidthFields)
{
    check::FuzzCase c = check::fuzzCaseFromJson(
        "{\"meshX\": \"4294967295\", \"seed\": "
        "\"18446744073709551615\", \"coreFreqGHz\": \"0x1.8p+0\"}");
    EXPECT_EQ(c.cfg.meshX, 4294967295u);
    EXPECT_EQ(c.cfg.seed, 18446744073709551615ull);
    EXPECT_EQ(c.cfg.coreFreqGHz, 1.5);
}

TEST(ConfigFuzz, ErrorNamesTheDesignAndTheRule)
{
    // The balancer knobs only bind under the HLB designs, which
    // runFuzzCase builds over every sampled base.
    SystemConfig cfg = check::minimalFuzzBaseline();
    cfg.lb.hotK = 0;
    cfg.validate(); // the base itself leaves the balancer off
    EXPECT_EQ(check::fuzzConfigError(cfg),
              "design HLB: lb hotK must be nonzero (the hotness tracker "
              "needs at least one counter slot per unit)");
}

TEST(ConfigFuzz, RunMetricsEqualitySeparatesFields)
{
    // runFuzzCase's determinism leg compares whole results with the
    // wall clock zeroed on both sides; the defaulted operator== reaches
    // every field, vector elements and the nested energy included.
    RunMetrics a;
    a.tasks = 10;
    a.coreActiveTicks = {3, 4};
    a.energy.netPj = 1.5;
    a.hostSeconds = 0.25;
    RunMetrics b = a;
    b.hostSeconds = 123.0;
    EXPECT_NE(a, b);
    a.hostSeconds = b.hostSeconds = 0.0;
    EXPECT_EQ(a, b);

    RunMetrics c = b;
    c.interHops = 1;
    EXPECT_NE(a, c);
    c = b;
    c.coreActiveTicks[1] = 5;
    EXPECT_NE(a, c);
    c = b;
    c.energy.staticPj = 2.0;
    EXPECT_NE(a, c);
}

TEST(ConfigFuzz, MinimizerReachesBaselineWhenEverythingFails)
{
    // If the predicate always fails, every knob resets and the
    // minimizer must land exactly on the minimal baseline.
    Rng rng(0x3333u);
    check::FuzzCase c = check::sampleFuzzCase(rng);
    SystemConfig minimized = check::minimizeConfig(
        c.cfg, [](const SystemConfig &) { return true; });
    check::FuzzCase base;
    base.cfg = check::minimalFuzzBaseline();
    base.workload = c.workload;
    check::FuzzCase got;
    got.cfg = minimized;
    got.workload = c.workload;
    EXPECT_EQ(check::fuzzCaseToJson(got), check::fuzzCaseToJson(base));
}

TEST(ConfigFuzz, MinimizerPreservesTheFailureTrigger)
{
    // Synthetic failure that depends on exactly two knobs; everything
    // else must reset, those two must survive.
    Rng rng(0x4444u);
    check::FuzzCase c;
    do {
        c = check::sampleFuzzCase(rng);
    } while (c.cfg.unitsPerStack == 2 ||
             c.cfg.net.intraTopology != IntraTopology::Ring);
    auto trigger = [](const SystemConfig &cfg) {
        return cfg.unitsPerStack == 4 &&
            cfg.net.intraTopology == IntraTopology::Ring;
    };
    ASSERT_TRUE(trigger(c.cfg));
    SystemConfig minimized = check::minimizeConfig(c.cfg, trigger);
    EXPECT_TRUE(trigger(minimized));
    // Every knob not implicated in the trigger resets to baseline.
    SystemConfig base = check::minimalFuzzBaseline();
    EXPECT_EQ(minimized.meshX, base.meshX);
    EXPECT_EQ(minimized.meshY, base.meshY);
    EXPECT_EQ(minimized.seed, base.seed);
    EXPECT_EQ(minimized.memBytesPerUnit, base.memBytesPerUnit);
    EXPECT_EQ(minimized.traveller.campCount, base.traveller.campCount);
}

TEST(ConfigFuzz, MinimizerSkipsInvalidIntermediates)
{
    // Start from a config whose group count equals its unit count
    // (>= 8): resetting a mesh dimension or unitsPerStack alone would
    // break the divisibility constraint, so the minimizer must reset
    // campCount first (fixpoint sweep) — and never hand the predicate
    // an invalid config.
    Rng rng(0x5555u);
    check::FuzzCase c;
    do {
        c = check::sampleFuzzCase(rng);
    } while (c.cfg.numGroups() != c.cfg.numUnits() ||
             c.cfg.numUnits() < 8);
    SystemConfig minimized = check::minimizeConfig(
        c.cfg, [](const SystemConfig &cfg) {
            EXPECT_EQ(check::fuzzConfigError(cfg), "");
            return true;
        });
    EXPECT_EQ(check::fuzzConfigError(minimized), "");
    EXPECT_EQ(minimized.numUnits() % minimized.numGroups(), 0u);
}

TEST(ConfigFuzz, PrunedScoringOnTinyMachineRegression)
{
    // Found by fuzz_configs --seed=1 (case 2): the pruned-scoring
    // most-idle hint sorted its nominal 8 entries past the end of the
    // unit list on machines with fewer than 8 units — heap overflow.
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline(); // 2 units, far below 8
    c.cfg.sched.exhaustiveScoring = false;
    c.workload = "gcn";
    check::FuzzReport rep = check::runFuzzCase(c, 1);
    EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(ConfigFuzz, SamplerExercisesBothMemBackends)
{
    // The mem-backend axis fires for ~1 draw in 3; over 200 draws both
    // backends must appear, and every DDR draw must carry knobs that
    // survive validate() (checked in SamplerProducesValidVariedConfigs
    // via the shared loop — here we only pin the axis coverage).
    Rng rng(0xddc0u);
    int nDdr = 0, nMeter = 0;
    for (int i = 0; i < 200; ++i) {
        check::FuzzCase c = check::sampleFuzzCase(rng);
        if (c.cfg.dram.backend == MemBackendKind::Ddr) {
            ++nDdr;
            EXPECT_EQ(c.cfg.dram.banks % c.cfg.dram.bankGroups, 0u);
            EXPECT_EQ(c.cfg.dram.rowBytes % c.cfg.dram.burstBytes, 0u);
            EXPECT_GE(c.cfg.dram.tRasNs, c.cfg.dram.tRcdNs);
        } else {
            ++nMeter;
        }
    }
    EXPECT_GT(nDdr, 30);
    EXPECT_GT(nMeter, 60);
}

TEST(ConfigFuzz, RunFuzzCaseDdrSmoke)
{
    // One end-to-end DDR case through all six designs with checkers
    // armed: exercises the bank state machines, the tFAW ACT-window
    // audit, and the differential-visible counters under the full
    // metamorphic harness (determinism + thread invariance).
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline();
    c.cfg.dram.backend = MemBackendKind::Ddr;
    c.cfg.dram.pagePolicy = PagePolicy::Adaptive;
    c.cfg.dram.addrMap = DramAddrMapKind::RowColumnBank;
    c.workload = "pr";
    check::FuzzReport rep = check::runFuzzCase(c, 2);
    EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(ConfigFuzz, RunFuzzCaseSmoke)
{
    // One real end-to-end case through all six NDP designs, twice
    // (sequential + 2-thread grid), with checkers armed.
    check::FuzzCase c;
    c.cfg = check::minimalFuzzBaseline();
    c.cfg.meshX = 2; // exercise inter-stack hops too
    c.workload = "pr";
    check::FuzzReport rep = check::runFuzzCase(c, 2);
    EXPECT_TRUE(rep.ok) << rep.message;
    EXPECT_TRUE(rep.message.empty());
}

} // namespace abndp

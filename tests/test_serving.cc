/**
 * @file
 * Online-serving driver tests (src/serve, NdpSystem::serveRun): the
 * deterministic open-loop arrival process, the exact latency
 * accumulator, the Zipfian key sampler, and full serving runs on
 * tiny systems — determinism, request conservation (injected ==
 * rejected + completed direct + completed recovered), admission
 * control, rate profiles, multi-tenant stats, failure tolerance, and
 * batch isolation (a batch dump carries no serving node).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/ndp_system.hh"
#include "serve/arrival.hh"
#include "serve/latency_recorder.hh"
#include "serve/zipf.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** Tiny serving system: default geometry plus a short kv stream. */
SystemConfig
servingConfig(Design d, std::uint64_t requests = 2000)
{
    SystemConfig cfg;
    cfg = applyDesign(cfg, d);
    cfg.serving.requests = requests;
    cfg.serving.ratePerUs = 4.0;
    cfg.serving.zipfS = 0.99;
    cfg.serving.sloNs = 4000.0;
    return cfg;
}

/** Run @p spec as a served stream and return (metrics, verify()). */
RunMetrics
serveOnce(const SystemConfig &cfg, const WorkloadSpec &spec,
          bool *verified = nullptr)
{
    NdpSystem sys(cfg);
    auto wl = makeWorkload(spec);
    RunMetrics m = sys.run(*wl);
    bool ok = wl->verify();
    if (verified)
        *verified = ok;
    else
        EXPECT_TRUE(ok);
    return m;
}

/** The serving metamorphic relation (also enforced by src/check). */
void
expectConserved(const RunMetrics &m)
{
    EXPECT_EQ(m.servingInjected,
              m.servingRejected + m.servingCompletedDirect
                  + m.servingCompletedRecovered);
}

} // namespace

// ---- ArrivalProcess ---------------------------------------------------

TEST(ServingArrival, StrictlyIncreasingAndDeterministic)
{
    ServingConfig sc;
    sc.requests = 1;
    sc.ratePerUs = 8.0;
    serve::ArrivalProcess a(sc, 42), b(sc, 42), c(sc, 43);

    Tick ta = 0, tb = 0, tc = 0;
    bool diverged = false;
    for (int i = 0; i < 2000; ++i) {
        Tick na = a.nextArrival(ta), nb = b.nextArrival(tb),
             nc = c.nextArrival(tc);
        ASSERT_GT(na, ta) << "arrival " << i << " did not advance time";
        ASSERT_EQ(na, nb) << "same seed diverged at arrival " << i;
        diverged |= na != nc;
        ta = na;
        tb = nb;
        tc = nc;
    }
    EXPECT_TRUE(diverged) << "different seeds produced the same stream";

    // Open loop at 8 req/us: 2000 arrivals should take on the order of
    // 250 us of simulated time (loose 4x band either way).
    const double us = static_cast<double>(ta) / (1000.0 * ticksPerNs);
    EXPECT_GT(us, 250.0 / 4.0);
    EXPECT_LT(us, 250.0 * 4.0);
}

TEST(ServingArrival, RateProfilesMatchConfiguredShape)
{
    ServingConfig sc;
    sc.requests = 1;
    sc.ratePerUs = 4.0;
    const double mean = 4.0 / (1000.0 * ticksPerNs);

    serve::ArrivalProcess flat(sc, 1);
    EXPECT_DOUBLE_EQ(flat.rateAt(0), mean);
    EXPECT_DOUBLE_EQ(flat.rateAt(1234567), mean);

    sc.profile = RateProfile::Bursty;
    sc.burstFactor = 4.0;
    sc.burstFraction = 0.1;
    sc.burstPeriodUs = 50.0;
    serve::ArrivalProcess bursty(sc, 1);
    const Tick period = static_cast<Tick>(50.0 * 1000.0 * ticksPerNs);
    // Start of the period is the burst phase at burstFactor x mean;
    // past the burst fraction the baseline rate keeps the mean.
    EXPECT_DOUBLE_EQ(bursty.rateAt(0), 4.0 * mean);
    EXPECT_LT(bursty.rateAt(period / 2), mean);
    EXPECT_DOUBLE_EQ(bursty.rateAt(period), 4.0 * mean);

    sc.profile = RateProfile::Diurnal;
    sc.diurnalPeriodUs = 200.0;
    sc.diurnalDepth = 0.8;
    serve::ArrivalProcess diurnal(sc, 1);
    const Tick cycle = static_cast<Tick>(200.0 * 1000.0 * ticksPerNs);
    double lo = mean, hi = mean;
    for (Tick t = 0; t <= cycle; t += cycle / 64) {
        double r = diurnal.rateAt(t);
        EXPECT_GE(r, mean * (1.0 - 0.8) - 1e-18);
        EXPECT_LE(r, mean * (1.0 + 0.8) + 1e-18);
        lo = std::min(lo, r);
        hi = std::max(hi, r);
    }
    EXPECT_LT(lo, 0.5 * mean);
    EXPECT_GT(hi, 1.5 * mean);
}

// ---- LatencyRecorder --------------------------------------------------

TEST(ServingLatency, NearestRankPercentilesOnKnownSet)
{
    serve::LatencyRecorder rec(90);
    for (Tick v = 1; v <= 100; ++v)
        rec.record(v);
    EXPECT_EQ(rec.samples(), 100u);
    EXPECT_EQ(rec.percentile(0.50), 50u);
    EXPECT_EQ(rec.percentile(0.95), 95u);
    EXPECT_EQ(rec.percentile(0.99), 99u);
    EXPECT_EQ(rec.percentile(0.999), 100u);
    EXPECT_EQ(rec.percentile(1.0), 100u);
    EXPECT_DOUBLE_EQ(rec.meanTicks(), 50.5);
    EXPECT_EQ(rec.sloMisses(), 10u); // 91..100 exceed the SLO of 90
}

// ---- ZipfianSampler ---------------------------------------------------

TEST(ServingZipf, UniformDegenerateCaseAndSkewOrdering)
{
    serve::ZipfianSampler uniform(10, 0.0);
    EXPECT_EQ(uniform.numKeys(), 10u);
    for (std::uint64_t k = 0; k < 10; ++k)
        EXPECT_NEAR(uniform.probabilityOf(k), 0.1, 1e-12);
    EXPECT_EQ(uniform.keyFor(0.0), 0u);
    EXPECT_EQ(uniform.keyFor(0.55), 5u);

    serve::ZipfianSampler skewed(10, 0.99);
    double total = 0.0;
    for (std::uint64_t k = 0; k < 10; ++k) {
        total += skewed.probabilityOf(k);
        if (k > 0) {
            EXPECT_LT(skewed.probabilityOf(k),
                      skewed.probabilityOf(k - 1));
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
}

// ---- Full serving runs ------------------------------------------------

TEST(Serving, KvStreamServesAndVerifies)
{
    auto cfg = servingConfig(Design::O);
    RunMetrics m = serveOnce(cfg, WorkloadSpec::tiny("kv"));

    EXPECT_EQ(m.servingInjected, cfg.serving.requests);
    expectConserved(m);
    EXPECT_GT(m.servingCompletedDirect, 0u);
    EXPECT_GT(m.servingWindows, 0u);
    EXPECT_EQ(m.epochs, m.servingWindows);
    EXPECT_GT(m.servingP50Ns, 0.0);
    EXPECT_GE(m.servingP95Ns, m.servingP50Ns);
    EXPECT_GE(m.servingP99Ns, m.servingP95Ns);
    EXPECT_GE(m.servingP999Ns, m.servingP99Ns);
    EXPECT_GT(m.servingMeanNs, 0.0);
    EXPECT_GT(m.servingGoodputQps, 0.0);
    EXPECT_GE(m.servingSloMissRate, 0.0);
    EXPECT_LE(m.servingSloMissRate, 1.0);
}

TEST(Serving, EveryQueryServiceWorkloadServes)
{
    // All four point-query services accept the open-loop stream and
    // still pass their own end-to-end answer verification. Checkers
    // armed: every injected query must carry the block list its hint
    // derives.
    for (const char *name : {"kv", "knn", "sssp", "astar"}) {
        SCOPED_TRACE(name);
        auto cfg = servingConfig(Design::B, 300);
        cfg.checkInvariants = true;
        RunMetrics m = serveOnce(cfg, WorkloadSpec::tiny(name));
        EXPECT_EQ(m.servingInjected, 300u);
        expectConserved(m);
        EXPECT_GT(m.servingCompletedDirect, 0u);
    }
}

TEST(Serving, DeterministicAcrossRuns)
{
    // Two independent simulator instances on the same serving config
    // must produce byte-identical full stats dumps — the serving
    // analogue of NdpSystem.DeterministicAcrossRuns.
    auto dump = [] {
        auto cfg = servingConfig(Design::Sl, 1500);
        cfg.serving.tenants = 3;
        NdpSystem sys(cfg);
        auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
        sys.run(*wl);
        EXPECT_TRUE(wl->verify());
        std::ostringstream oss;
        sys.statsRegistry().dump(oss);
        return oss.str();
    };
    std::string a = dump(), b = dump();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("serving"), std::string::npos);
}

TEST(Serving, AdmissionControlRejectsOnlyWhenBounded)
{
    // A one-slot admission window under a fast stream must reject;
    // the unbounded window must never reject and must complete all.
    auto bounded = servingConfig(Design::B, 800);
    bounded.serving.ratePerUs = 16.0;
    bounded.serving.maxOutstanding = 1;
    RunMetrics mb = serveOnce(bounded, WorkloadSpec::tiny("kv"));
    EXPECT_GT(mb.servingRejected, 0u);
    expectConserved(mb);

    auto unbounded = servingConfig(Design::B, 800);
    unbounded.serving.ratePerUs = 16.0;
    unbounded.serving.maxOutstanding = 0;
    RunMetrics mu = serveOnce(unbounded, WorkloadSpec::tiny("kv"));
    EXPECT_EQ(mu.servingRejected, 0u);
    EXPECT_EQ(mu.servingCompletedDirect + mu.servingCompletedRecovered,
              mu.servingInjected);
}

TEST(Serving, BurstyAndDiurnalProfilesConserve)
{
    for (RateProfile p : {RateProfile::Bursty, RateProfile::Diurnal}) {
        SCOPED_TRACE(static_cast<int>(p));
        auto cfg = servingConfig(Design::O, 1200);
        cfg.serving.profile = p;
        RunMetrics m = serveOnce(cfg, WorkloadSpec::tiny("kv"));
        EXPECT_EQ(m.servingInjected, 1200u);
        expectConserved(m);
        EXPECT_GT(m.servingCompletedDirect, 0u);
    }
}

TEST(Serving, MultiTenantWeightsShowUpInStats)
{
    auto cfg = servingConfig(Design::O, 1500);
    cfg.serving.tenants = 3;
    cfg.serving.tenantWeights = {8.0, 1.0, 1.0};
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    expectConserved(m);

    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    const std::string dump = oss.str();
    EXPECT_NE(dump.find("tenantCompleted"), std::string::npos);
    EXPECT_NE(dump.find("tenantP99Ns"), std::string::npos);
}

TEST(Serving, ConservationHoldsUnderUnitFailure)
{
    // A unit dies mid-stream: in-flight requests ride the recovery
    // path (redispatch) and the conservation relation must still
    // close — nothing lost, nothing double-counted.
    auto cfg = servingConfig(Design::Sl, 1500);
    cfg.fault.unitFailure.units = {1};
    cfg.fault.unitFailure.failAtNs = 2000.0;
    RunMetrics m = serveOnce(cfg, WorkloadSpec::tiny("kv"));
    EXPECT_EQ(m.servingInjected, 1500u);
    expectConserved(m);
    EXPECT_GT(m.servingCompletedDirect, 0u);
}

TEST(Serving, BatchRunDumpsNoServingNode)
{
    // Serving disabled: the stats tree must not even contain the
    // serving node (registration is gated, not zero-filled), and all
    // serving metrics stay zero.
    SystemConfig cfg;
    cfg = applyDesign(cfg, Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(m.servingInjected, 0u);
    EXPECT_EQ(m.servingRejected, 0u);
    EXPECT_EQ(m.servingCompletedDirect, 0u);
    EXPECT_EQ(m.servingWindows, 0u);
    EXPECT_EQ(m.servingGoodputQps, 0.0);

    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    EXPECT_EQ(oss.str().find("serving"), std::string::npos);
}

} // namespace abndp

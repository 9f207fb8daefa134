/**
 * @file
 * Tests for the JSON run report and for the registry dump a finished
 * run prints under `abndp_sim --stats`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/ndp_system.hh"
#include "core/stats_report.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

struct ReportFixture
{
    ReportFixture()
        : cfg(applyDesign(SystemConfig{}, Design::O)), sys(cfg)
    {
        auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
        metrics = sys.run(*wl);
    }

    SystemConfig cfg;
    NdpSystem sys;
    RunMetrics metrics;
};

} // namespace

TEST(StatsReport, JsonIsWellFormedEnough)
{
    ReportFixture f;
    std::ostringstream oss;
    dumpJson(oss, f.cfg, f.metrics);
    std::string out = oss.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
    // Balanced braces and the headline keys.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    for (const char *key : {"\"ticks\":", "\"interHops\":",
                            "\"energyPj\":", "\"total\":"})
        EXPECT_NE(out.find(key), std::string::npos) << key;
}

TEST(StatsReport, DumpIsStableUnderAmbientStreamState)
{
    ReportFixture f;
    std::ostringstream pristine;
    f.sys.statsRegistry().dump(pristine);

    // A caller-perturbed stream (precision, scientific notation, odd
    // fill) must not change a single byte: every value goes through
    // obs::formatStatValue(), which carries its own explicit format,
    // and names are padded with explicit spaces.
    std::ostringstream perturbed;
    perturbed << std::scientific << std::setprecision(2)
              << std::setfill('*');
    f.sys.statsRegistry().dump(perturbed);
    EXPECT_EQ(pristine.str(), perturbed.str());
}

TEST(StatsReport, JsonValuesMatchMetrics)
{
    ReportFixture f;
    std::ostringstream oss;
    dumpJson(oss, f.cfg, f.metrics);
    std::string out = oss.str();
    EXPECT_NE(out.find("\"ticks\":" + std::to_string(f.metrics.ticks)),
              std::string::npos);
    EXPECT_NE(out.find("\"tasks\":" + std::to_string(f.metrics.tasks)),
              std::string::npos);
}

} // namespace abndp

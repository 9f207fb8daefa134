/**
 * @file
 * Tests for the per-epoch stats dump (--stats-interval=1), which carries
 * every per-epoch counter delta: tasks, hops, camp hits and misses,
 * forwards, and steals.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "core/ndp_system.hh"
#include "workloads/factory.hh"

namespace abndp
{

TEST(Trace, IntervalDumpWritesOneBlockPerEpoch)
{
    char tmpl[] = "/tmp/abndp_interval_XXXXXX";
    int fd = mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    close(fd);
    std::string path = tmpl;

    SystemConfig cfg = applyDesign(SystemConfig{}, Design::O);
    cfg.statsInterval = 1;
    cfg.statsOut = path;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    ASSERT_GT(m.epochs, 1u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::uint64_t blocks = 0;
    std::uint64_t totalTasks = 0;
    while (std::getline(in, line)) {
        if (line.rfind("interval epochs [", 0) == 0) {
            std::ostringstream want;
            want << "interval epochs [" << blocks << ", " << blocks + 1
                 << ") tick ";
            EXPECT_EQ(line.rfind(want.str(), 0), 0u) << line;
            ++blocks;
        } else if (line.rfind("system.tasks ", 0) == 0) {
            std::istringstream iss(line);
            std::string name;
            std::uint64_t delta = 0;
            iss >> name >> delta;
            totalTasks += delta;
        }
    }
    EXPECT_EQ(blocks, m.epochs);
    EXPECT_EQ(totalTasks, m.tasks);
    std::remove(path.c_str());
}

TEST(TraceDeath, UnwritableStatsOutIsFatal)
{
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::B);
    cfg.statsInterval = 1;
    cfg.statsOut = "/nonexistent-dir/interval.stats";
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    EXPECT_DEATH(sys.run(*wl), "cannot open stats output file");
}

} // namespace abndp

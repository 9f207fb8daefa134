/**
 * @file
 * The shared run-flag helper (driver/run_flags.hh): reading the flags
 * into a config with per-cell tagging, and the parallel-grid
 * stats-interval guard.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hh"
#include "driver/run_flags.hh"

namespace abndp
{

namespace
{

/** Build CliFlags from a literal argv (argv[0] is the program name). */
CliFlags
makeFlags(std::vector<std::string> argv)
{
    argv.insert(argv.begin(), "test");
    std::vector<char *> raw;
    for (auto &a : argv)
        raw.push_back(a.data());
    return CliFlags(static_cast<int>(raw.size()), raw.data());
}

} // namespace

TEST(RunFlags, DefaultsAreQuiet)
{
    SystemConfig cfg;
    applyRunFlags(makeFlags({}), cfg);
    EXPECT_TRUE(cfg.traceOut.empty());
    EXPECT_TRUE(cfg.statsOut.empty());
    EXPECT_EQ(cfg.statsInterval, 0u);
    EXPECT_EQ(cfg.dram.backend, MemBackendKind::Meter);
}

TEST(RunFlags, ParsesAllFourFlags)
{
    CliFlags flags = makeFlags({"--trace-out=t.json", "--stats-out=s.txt",
                                "--stats-interval=5",
                                "--mem-backend=ddr"});
    SystemConfig cfg;
    applyRunFlags(flags, cfg);
    EXPECT_EQ(cfg.traceOut, "t.json");
    EXPECT_EQ(cfg.statsOut, "s.txt");
    EXPECT_EQ(cfg.statsInterval, 5u);
    EXPECT_EQ(cfg.dram.backend, MemBackendKind::Ddr);
    // Reading them is what lets the strict check pass.
    flags.rejectUnread();
}

TEST(RunFlags, ApplyWiresConfigAndTagsPaths)
{
    CliFlags flags = makeFlags({"--trace-out=out/trace.json",
                                "--stats-out=stats.txt",
                                "--stats-interval=2"});
    SystemConfig cfg;
    applyRunFlags(flags, cfg, "pr.O");
    EXPECT_EQ(cfg.traceOut, "out/trace.pr.O.json");
    EXPECT_EQ(cfg.statsOut, "stats.pr.O.txt");
    EXPECT_EQ(cfg.statsInterval, 2u);

    SystemConfig untagged;
    applyRunFlags(flags, untagged);
    EXPECT_EQ(untagged.traceOut, "out/trace.json");
    EXPECT_EQ(untagged.statsOut, "stats.txt");
}

TEST(RunFlags, ApplyLeavesUnsetFieldsAlone)
{
    SystemConfig cfg;
    cfg.traceOut = "preset.json";
    cfg.statsInterval = 3;
    applyRunFlags(makeFlags({}), cfg, "tag");
    EXPECT_EQ(cfg.traceOut, "preset.json"); // not clobbered by ""
    EXPECT_EQ(cfg.statsInterval, 3u);
}

TEST(RunFlags, MemBackendParsesAndApplies)
{
    SystemConfig cfg;
    applyRunFlags(makeFlags({"--mem-backend=ddr"}), cfg);
    EXPECT_EQ(cfg.dram.backend, MemBackendKind::Ddr);

    // Unset leaves the config's choice alone (including a non-default
    // one baked into a preset).
    SystemConfig preset;
    preset.dram.backend = MemBackendKind::Ddr;
    applyRunFlags(makeFlags({}), preset);
    EXPECT_EQ(preset.dram.backend, MemBackendKind::Ddr);

    // Explicit meter overrides a DDR preset.
    SystemConfig back;
    back.dram.backend = MemBackendKind::Ddr;
    applyRunFlags(makeFlags({"--mem-backend=meter"}), back);
    EXPECT_EQ(back.dram.backend, MemBackendKind::Meter);
}

TEST(RunFlagsDeath, UnknownMemBackendNameIsFatal)
{
    SystemConfig cfg;
    EXPECT_DEATH(applyRunFlags(makeFlags({"--mem-backend=hbm3"}), cfg),
                 "unknown memory backend");
}

TEST(RunFlagsDeath, MultiCellIntervalStatsRequireFile)
{
    // Interval dumps but no --stats-out.
    CliFlags flags = makeFlags({"--stats-interval=3"});
    SystemConfig cfg;
    EXPECT_DEATH(applyRunFlags(flags, cfg, "pr.O", /*multiCell=*/true),
                 "stats-interval under a parallel grid requires");
}

} // namespace abndp

/** @file Tests for the CLI flag parser and the text table printer. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.hh"
#include "common/table.hh"

namespace abndp
{

namespace
{

CliFlags
parse(std::initializer_list<const char *> args)
{
    std::vector<char *> argv;
    static char prog[] = "prog";
    argv.push_back(prog);
    std::vector<std::string> storage(args.begin(), args.end());
    for (auto &s : storage)
        argv.push_back(s.data());
    return CliFlags(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Cli, ParsesEqualsForm)
{
    auto f = parse({"--scale=14", "--alpha=2.5", "--name=pr"});
    EXPECT_EQ(f.getUint("scale", 0), 14u);
    EXPECT_DOUBLE_EQ(f.getDouble("alpha", 0.0), 2.5);
    EXPECT_EQ(f.getString("name", ""), "pr");
}

TEST(Cli, ParsesSpaceForm)
{
    auto f = parse({"--scale", "15", "--flag"});
    EXPECT_EQ(f.getUint("scale", 0), 15u);
    EXPECT_TRUE(f.getBool("flag", false));
}

TEST(Cli, DefaultsWhenMissing)
{
    auto f = parse({});
    EXPECT_EQ(f.getUint("x", 7), 7u);
    EXPECT_EQ(f.getString("y", "dflt"), "dflt");
    EXPECT_FALSE(f.has("x"));
}

TEST(Cli, ParsesCPrefixedBasesAndHexfloats)
{
    auto f = parse({"--a=0x10", "--b=010", "--c=0x1p-2", "--d=-2.5"});
    EXPECT_EQ(f.getUint("a", 0), 16u);
    EXPECT_EQ(f.getUint("b", 0), 8u);
    EXPECT_DOUBLE_EQ(f.getDouble("c", 0.0), 0.25);
    EXPECT_DOUBLE_EQ(f.getDouble("d", 0.0), -2.5);
    EXPECT_EQ(parseUint("n", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseUint("n", "010", 10), 10u);
}

TEST(CliDeath, RejectsMalformedUnsignedValues)
{
    // Plain strtoull() takes each of these silently: as 0, as a wrapped
    // 2^64 - 1, or as its leading digits.
    const auto exit1 = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parse({"--scale=abc"}).getUint("scale", 13), exit1,
                "fatal: --scale: 'abc' is not an unsigned integer");
    EXPECT_EXIT(parse({"--scale=-1"}).getUint("scale", 13), exit1,
                "--scale: '-1' is not an unsigned integer");
    EXPECT_EXIT(parse({"--scale=+1"}).getUint("scale", 13), exit1,
                "'\\+1' is not an unsigned integer");
    EXPECT_EXIT(parse({"--scale= 1"}).getUint("scale", 13), exit1,
                "' 1' is not an unsigned integer");
    EXPECT_EXIT(parse({"--scale=12k"}).getUint("scale", 13), exit1,
                "'12k' is not an unsigned integer");
    EXPECT_EXIT(parse({"--scale=08"}).getUint("scale", 13), exit1,
                "'08' is not an unsigned integer");
    // A bare flag reads as "true".
    EXPECT_EXIT(parse({"--scale"}).getUint("scale", 13), exit1,
                "--scale: 'true' is not an unsigned integer");
    EXPECT_EXIT(parse({"--seed=18446744073709551616"}).getUint("seed", 1),
                exit1, "--seed: '18446744073709551616' does not fit in 64 "
                "bits");
}

TEST(Cli, Uint32AccessorTakesTheWholeRange)
{
    auto f = parse({"--scale=4294967295", "--mesh=0x10"});
    EXPECT_EQ(f.getUint32("scale", 13), 4294967295u);
    EXPECT_EQ(f.getUint32("mesh", 4), 16u);
    EXPECT_EQ(f.getUint32("camps", 3), 3u);
}

TEST(CliDeath, RejectsUnsignedValuesPast32Bits)
{
    // A cast to 32 bits would run --scale=4294967306 as scale 10.
    const auto exit1 = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parse({"--scale=4294967306"}).getUint32("scale", 13),
                exit1, "fatal: --scale: '4294967306' does not fit in 32 "
                "bits");
    EXPECT_EXIT(parse({"--threads=0x100000000"}).getUint32("threads", 1),
                exit1, "--threads: '0x100000000' does not fit in 32 bits");
    EXPECT_EXIT(parse({"--mesh=-4"}).getUint32("mesh", 4), exit1,
                "--mesh: '-4' is not an unsigned integer");
}

TEST(Cli, MebibytesAccessorReturnsBytes)
{
    auto f = parse({"--mem-mb=17592186044415", "--small=3"});
    EXPECT_EQ(f.getMebibytes("mem-mb", 512), 17592186044415ull << 20);
    EXPECT_EQ(f.getMebibytes("small", 512), 3ull << 20);
    EXPECT_EQ(f.getMebibytes("absent", 2), 2ull << 20);
}

TEST(CliDeath, RejectsMebibytesPast64BitBytes)
{
    // 2^44 MiB is 2^64 bytes: a plain shift would run
    // --mem-mb=17592186044417 (2^44 + 1) as 1 MiB per unit.
    const auto exit1 = ::testing::ExitedWithCode(1);
    auto mb = [](const char *arg) {
        return parse({arg}).getMebibytes("mem-mb", 512);
    };
    EXPECT_EXIT(mb("--mem-mb=17592186044416"), exit1,
                "fatal: --mem-mb: '17592186044416' MiB does not fit in 64 "
                "bits as bytes");
    EXPECT_EXIT(mb("--mem-mb=17592186044417"), exit1,
                "--mem-mb: '17592186044417' MiB does not fit");
}

TEST(CliDeath, RejectsMalformedDoubleValues)
{
    const auto exit1 = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parse({"--bypass=high"}).getDouble("bypass", 0.4), exit1,
                "fatal: --bypass: 'high' is not a number");
    EXPECT_EXIT(parse({"--bypass=0.4x"}).getDouble("bypass", 0.4), exit1,
                "'0.4x' is not a number");
    EXPECT_EXIT(parse({"--bypass="}).getDouble("bypass", 0.4), exit1,
                "--bypass: '' is not a number");
    EXPECT_EXIT(parse({"--alpha=1e999"}).getDouble("alpha", 3.0), exit1,
                "--alpha: '1e999' is out of double range");
    EXPECT_EXIT(parse({"--alpha=inf"}).getDouble("alpha", 3.0), exit1,
                "--alpha: 'inf' is not finite");
    EXPECT_EXIT(parse({"--alpha=nan"}).getDouble("alpha", 3.0), exit1,
                "--alpha: 'nan' is not finite");
}

TEST(Cli, BooleanSpellings)
{
    auto f = parse({"--a=true", "--b=0", "--c=yes", "--d=off"});
    EXPECT_TRUE(f.getBool("a", false));
    EXPECT_FALSE(f.getBool("b", true));
    EXPECT_TRUE(f.getBool("c", false));
    EXPECT_FALSE(f.getBool("d", true));
}

TEST(Cli, CollectsPositionals)
{
    auto f = parse({"file1", "--x=1", "file2"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "file1");
    EXPECT_EQ(f.positional()[1], "file2");
}

TEST(Table, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2.50"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
}

TEST(TableDeath, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width mismatch");
}

} // namespace abndp

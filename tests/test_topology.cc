/** @file Tests for the hierarchical topology and camp grouping. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "net/topology.hh"

namespace abndp
{

namespace
{

SystemConfig
makeCfg(std::uint32_t meshX, std::uint32_t meshY, std::uint32_t camps)
{
    SystemConfig cfg;
    cfg.meshX = meshX;
    cfg.meshY = meshY;
    cfg.traveller.campCount = camps;
    return cfg;
}

} // namespace

TEST(Topology, DefaultDimensions)
{
    SystemConfig cfg;
    Topology topo(cfg);
    EXPECT_EQ(topo.numUnits(), 128u);
    EXPECT_EQ(topo.numStacks(), 16u);
    EXPECT_EQ(topo.numGroups(), 4u);
    EXPECT_EQ(topo.unitsPerGroup(), 32u);
    EXPECT_EQ(topo.diameter(), 6u);
}

TEST(Topology, UnitNumberingIsConsecutivePerStackAndGroup)
{
    SystemConfig cfg;
    Topology topo(cfg);
    // Units 0..7 share a stack; units 0..31 share a group.
    for (UnitId u = 1; u < 8; ++u)
        EXPECT_EQ(topo.stackOf(u), topo.stackOf(0));
    for (UnitId u = 0; u < 32; ++u)
        EXPECT_EQ(topo.groupOf(u), 0u);
    EXPECT_EQ(topo.groupOf(32), 1u);
    EXPECT_EQ(topo.groupOf(127), 3u);
}

TEST(Topology, GroupsAreSpatiallyLocalizedTiles)
{
    // Figure 5: the 4x4 mesh splits into four 2x2 quadrants.
    SystemConfig cfg;
    Topology topo(cfg);
    for (GroupId g = 0; g < topo.numGroups(); ++g) {
        std::set<std::pair<std::uint32_t, std::uint32_t>> coords;
        for (UnitId u : topo.unitsOfGroup(g))
            coords.insert(topo.stackCoord(topo.stackOf(u)));
        EXPECT_EQ(coords.size(), 4u); // 4 stacks per group
        // Bounding box of a 2x2 tile spans exactly 2 in each dimension.
        std::uint32_t minX = ~0u, maxX = 0, minY = ~0u, maxY = 0;
        for (auto [x, y] : coords) {
            minX = std::min(minX, x);
            maxX = std::max(maxX, x);
            minY = std::min(minY, y);
            maxY = std::max(maxY, y);
        }
        EXPECT_EQ(maxX - minX, 1u);
        EXPECT_EQ(maxY - minY, 1u);
    }
}

TEST(Topology, InterHopsIsAMetric)
{
    SystemConfig cfg;
    Topology topo(cfg);
    for (UnitId a = 0; a < topo.numUnits(); a += 7) {
        EXPECT_EQ(topo.interHops(a, a), 0u);
        for (UnitId b = 0; b < topo.numUnits(); b += 11) {
            EXPECT_EQ(topo.interHops(a, b), topo.interHops(b, a));
            for (UnitId c = 0; c < topo.numUnits(); c += 13) {
                EXPECT_LE(topo.interHops(a, c),
                          topo.interHops(a, b) + topo.interHops(b, c));
            }
        }
    }
}

TEST(Topology, DistanceCostOrdering)
{
    SystemConfig cfg;
    Topology topo(cfg);
    // local < intra-stack < inter-stack.
    EXPECT_DOUBLE_EQ(topo.distanceCost(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(topo.distanceCost(0, 1), 1.5);
    EXPECT_GE(topo.distanceCost(0, 127), 10.0);
    // One mesh hop costs Dinter.
    UnitId right = invalidUnit;
    for (UnitId u = 0; u < topo.numUnits(); ++u)
        if (topo.interHops(0, u) == 1) {
            right = u;
            break;
        }
    ASSERT_NE(right, invalidUnit);
    EXPECT_DOUBLE_EQ(topo.distanceCost(0, right), 10.0);
}

TEST(Topology, HopsNeverExceedDiameter)
{
    SystemConfig cfg;
    Topology topo(cfg);
    for (UnitId a = 0; a < topo.numUnits(); a += 3)
        for (UnitId b = 0; b < topo.numUnits(); b += 5)
            EXPECT_LE(topo.interHops(a, b), topo.diameter());
}

/** Property sweep over mesh sizes and camp counts. */
class TopologyParam
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
{
};

TEST_P(TopologyParam, GroupPartitionInvariants)
{
    auto [mx, my, camps] = GetParam();
    SystemConfig cfg = makeCfg(mx, my, camps);
    Topology topo(cfg);

    // Every unit belongs to exactly one group; groups have equal size.
    std::map<GroupId, std::uint32_t> sizes;
    for (UnitId u = 0; u < topo.numUnits(); ++u)
        ++sizes[topo.groupOf(u)];
    EXPECT_EQ(sizes.size(), topo.numGroups());
    for (const auto &[g, n] : sizes)
        EXPECT_EQ(n, topo.unitsPerGroup());

    // unitInGroup is the inverse of the numbering.
    for (GroupId g = 0; g < topo.numGroups(); ++g)
        for (std::uint32_t i = 0; i < topo.unitsPerGroup(); ++i)
            EXPECT_EQ(topo.groupOf(topo.unitInGroup(g, i)), g);

    // Stacks are never split across groups when groups >= stacks.
    if (topo.numGroups() <= topo.numStacks()) {
        for (UnitId a = 0; a < topo.numUnits(); ++a)
            for (UnitId b = a + 1; b < topo.numUnits(); ++b)
                if (topo.stackOf(a) == topo.stackOf(b)) {
                    EXPECT_EQ(topo.groupOf(a), topo.groupOf(b));
                }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, TopologyParam,
    ::testing::Values(std::make_tuple(2u, 2u, 3u),
                      std::make_tuple(4u, 4u, 1u),
                      std::make_tuple(4u, 4u, 3u),
                      std::make_tuple(4u, 4u, 7u),
                      std::make_tuple(4u, 4u, 15u),
                      std::make_tuple(8u, 8u, 3u),
                      std::make_tuple(4u, 2u, 1u),
                      std::make_tuple(2u, 4u, 3u)));

} // namespace abndp

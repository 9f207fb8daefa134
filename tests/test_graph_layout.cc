/**
 * @file
 * GraphLayout's run-lived per-vertex lists: every vertex task borrows
 * the hint and block list the layout built once, so they must equal
 * what a per-task build would have produced, and graph runs must no
 * longer touch the epoch arena.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ndp_system.hh"
#include "workloads/factory.hh"
#include "workloads/graph_gen.hh"
#include "workloads/graph_layout.hh"

namespace abndp
{

namespace
{

/** One graph workload's layout: its graph and record/edge sizes. */
struct LayoutCase
{
    const char *workload;
    bool undirected;
    bool transposed;
    std::uint32_t recBytes;
    std::uint32_t edgeBytes;
};

/**
 * The hint a vertex task on @p v got from a per-task build: a second
 * allocator replays the layout's allocation order (records, then each
 * vertex's adjacency with its record's home), and the hint is pushed
 * element by element.
 */
std::vector<TaskHint>
freshHints(const SystemConfig &cfg, const Graph &g, const LayoutCase &c)
{
    SimAllocator alloc(cfg);
    const std::uint32_t n = g.numVertices();
    const std::vector<Addr> rec =
        alloc.allocateArray(c.recBytes, n, Placement::Interleaved);
    std::vector<TaskHint> hints(n);
    for (std::uint32_t v = 0; v < n; ++v) {
        TaskHint &h = hints[v];
        h.data.push_back(rec[v]);
        for (std::uint32_t nb : g.neighbors(v))
            h.data.push_back(rec[nb]);
        const std::uint64_t bytes =
            std::uint64_t{g.degree(v)} * c.edgeBytes;
        if (bytes != 0)
            h.ranges.push_back(
                {alloc.allocate(bytes, alloc.map().homeOf(rec[v]),
                                cachelineBytes),
                 static_cast<std::uint32_t>(bytes)});
    }
    return hints;
}

} // namespace

TEST(GraphLayout, BorrowedListsMatchFreshHintsAtScale12)
{
    const LayoutCase cases[] = {
        {"pr", false, true, 16, 4},  {"bfs", true, false, 8, 4},
        {"sssp", true, false, 16, 8}, {"gcn", true, false, 64, 4},
        {"spmv", false, false, 16, 8},
    };
    const SystemConfig cfg;
    for (const LayoutCase &c : cases) {
        SCOPED_TRACE(c.workload);
        RmatParams p;
        p.scale = 12;
        p.undirected = c.undirected;
        Graph g = makeRmatGraph(p);
        if (c.transposed)
            g = g.transposed();

        SimAllocator alloc(cfg);
        GraphLayout layout(g, c.recBytes, c.edgeBytes);
        layout.setup(alloc);
        const std::vector<TaskHint> fresh = freshHints(cfg, g, c);

        std::vector<Addr> derived;
        for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
            Task t;
            layout.borrowVertexHint(v, t);
            const TaskHint &h = fresh[v];
            ASSERT_EQ(t.hint.data.tier(), SmallVecTier::Borrowed);
            ASSERT_TRUE(std::equal(t.hint.data.begin(), t.hint.data.end(),
                                   h.data.begin(), h.data.end()))
                << "vertex " << v;
            ASSERT_EQ(t.hint.ranges.size(), h.ranges.size());
            for (std::size_t i = 0; i < h.ranges.size(); ++i) {
                ASSERT_EQ(t.hint.ranges[i].start, h.ranges[i].start);
                ASSERT_EQ(t.hint.ranges[i].bytes, h.ranges[i].bytes);
            }
            EXPECT_EQ(layout.vertexAddr(v), h.data[0]);

            derived.resize(h.totalLines());
            derived.resize(deriveBlocks(h, derived.data()));
            ASSERT_EQ(t.blocks.tier(), SmallVecTier::Borrowed);
            ASSERT_TRUE(std::equal(t.blocks.begin(), t.blocks.end(),
                                   derived.begin(), derived.end()))
                << "vertex " << v;
            ASSERT_EQ(t.hintLines, h.totalLines()) << "vertex " << v;
        }
    }
}

TEST(GraphLayout, GraphRunsLeaveTheTaskArenaEmpty)
{
    // The five vertex-centric workloads borrow every hint, so neither
    // the hint nor the block list of any task reaches the arena (and
    // with checkers armed, every borrowed memo is re-derived at
    // enqueue). astar builds per-query hints there: the control.
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg = applyDesign(cfg, Design::O);
    cfg.checkInvariants = true;
    for (const char *name : {"pr", "bfs", "sssp", "gcn", "spmv", "astar"}) {
        SCOPED_TRACE(name);
        NdpSystem sys(cfg);
        auto wl = makeWorkload(WorkloadSpec::tiny(name));
        sys.run(*wl);
        EXPECT_TRUE(wl->verify());
        if (std::string(name) == "astar")
            EXPECT_GT(wl->taskArena().capacityBytes(), 0u);
        else
            EXPECT_EQ(wl->taskArena().capacityBytes(), 0u);
    }
}

TEST(GraphLayout, ServedSsspQueriesBorrowTheirLists)
{
    // Query tasks are injected, not enqueued: the injection path keeps
    // the borrowed memo, and the armed checker re-derives it there.
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg = applyDesign(cfg, Design::O);
    cfg.checkInvariants = true;
    cfg.serving.requests = 300;
    cfg.serving.ratePerUs = 4.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("sssp"));
    const RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(m.servingInjected, 300u);
    EXPECT_EQ(wl->taskArena().capacityBytes(), 0u);
}

} // namespace abndp

#include "workloads/astar.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

AstarWorkload::AstarWorkload(Graph graph_, std::uint32_t numQueries,
                             std::uint64_t seed)
    : graph(std::move(graph_))
{
    abndp_assert(graph.numVertices() >= 2 && numQueries >= 1);
    Rng rng(seed);

    // ALT preprocessing: BFS tables from a few high-degree landmarks
    // (good coverage on power-law graphs) plus random ones.
    std::vector<std::uint32_t> lms;
    std::uint32_t v_max = 0;
    std::uint32_t eligible = 0;
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v) {
        if (graph.degree(v) > graph.degree(v_max))
            v_max = v;
        if (graph.degree(v) > 0)
            ++eligible;
    }
    // The draw below ends only once it has found numLandmarks distinct
    // vertices with neighbours.
    if (eligible < numLandmarks)
        fatal("astar: the graph has ", eligible, " vertices with "
              "neighbours, fewer than the ", numLandmarks,
              " landmarks ALT preprocessing draws from them");
    lms.push_back(v_max);
    while (lms.size() < numLandmarks) {
        auto v = static_cast<std::uint32_t>(
            rng.below(graph.numVertices()));
        if (graph.degree(v) > 0
            && std::find(lms.begin(), lms.end(), v) == lms.end())
            lms.push_back(v);
    }
    landmarkDist.reserve(numLandmarks);
    for (std::uint32_t l = 0; l < numLandmarks; ++l)
        landmarkDist.push_back(bfsFrom(lms[l]));

    // Query endpoints: reachable from the first landmark so each query
    // has a path.
    const auto &reach = landmarkDist[0];
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
        if (reach[v] != inf)
            candidates.push_back(v);
    // Every graph the landmark check admits passes (the first
    // landmark's neighbours are reachable); this guards the endpoint
    // draw below, which would never end on a single candidate.
    if (candidates.size() < 2)
        fatal("astar: only ", candidates.size(), " vertex is reachable "
              "from the first landmark; queries need 2 distinct "
              "endpoints");

    queries.resize(numQueries);
    for (auto &q : queries) {
        q.start = candidates[rng.below(candidates.size())];
        do {
            q.goal = candidates[rng.below(candidates.size())];
        } while (q.goal == q.start);
        q.g.assign(graph.numVertices(), inf);
        q.nextG.assign(graph.numVertices(), inf);
        q.enqueuedNext.assign(graph.numVertices(), false);
    }
}

std::vector<std::uint32_t>
AstarWorkload::bfsFrom(std::uint32_t from) const
{
    std::vector<std::uint32_t> dist(graph.numVertices(), inf);
    std::queue<std::uint32_t> q;
    dist[from] = 0;
    q.push(from);
    while (!q.empty()) {
        std::uint32_t v = q.front();
        q.pop();
        for (std::uint32_t n : graph.neighbors(v)) {
            if (dist[n] == inf) {
                dist[n] = dist[v] + 1;
                q.push(n);
            }
        }
    }
    return dist;
}

std::uint32_t
AstarWorkload::heuristic(std::uint32_t vertex, std::uint32_t goal) const
{
    // ALT: h(n) = max_l |d(l, n) - d(l, goal)|; admissible and
    // consistent on the unit-cost graph by the triangle inequality.
    std::uint32_t h = 0;
    for (std::uint32_t l = 0; l < numLandmarks; ++l) {
        std::uint32_t dc = landmarkDist[l][vertex];
        std::uint32_t dg = landmarkDist[l][goal];
        if (dc == inf || dg == inf)
            continue;
        std::uint32_t diff = dc > dg ? dc - dg : dg - dc;
        h = std::max(h, diff);
    }
    return h;
}

void
AstarWorkload::setup(SimAllocator &alloc)
{
    // Shared landmark tables and adjacency lists.
    lmAddr.clear();
    for (std::uint32_t l = 0; l < numLandmarks; ++l)
        lmAddr.push_back(alloc.allocateArray(4, graph.numVertices(),
                                             Placement::Interleaved));
    adjAddr.assign(graph.numVertices(), invalidAddr);
    // Per-query vertex state records (16 B), interleaved; adjacency is
    // stored with the first query's record of its vertex.
    for (auto &q : queries)
        q.recAddr = alloc.allocateArray(16, graph.numVertices(),
                                        Placement::Interleaved);
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v) {
        std::uint64_t bytes =
            static_cast<std::uint64_t>(graph.degree(v)) * 4;
        if (bytes > 0)
            adjAddr[v] = alloc.allocate(
                bytes, alloc.map().homeOf(queries[0].recAddr[v]),
                cachelineBytes);
    }
}

Task
AstarWorkload::makeTask(std::uint32_t q, std::uint32_t vertex,
                        std::uint64_t ts) const
{
    const Query &query = queries[q];
    Task t;
    t.timestamp = ts;
    t.arg = (static_cast<std::uint64_t>(q) << 32) | vertex;
    t.hint.data.reserve(2 + 2ull * graph.degree(vertex));
    t.hint.data.push_back(query.recAddr[vertex]);
    if (adjAddr[vertex] != invalidAddr)
        t.hint.ranges.push_back(
            {adjAddr[vertex],
             static_cast<std::uint32_t>(
                 static_cast<std::uint64_t>(graph.degree(vertex)) * 4)});
    for (std::uint32_t n : graph.neighbors(vertex)) {
        t.hint.data.push_back(query.recAddr[n]);
        // ALT entry used to evaluate h(n) for the pruning test.
        t.hint.data.push_back(lmAddr[n % numLandmarks][n]);
    }
    t.hint.data.push_back(lmAddr[vertex % numLandmarks][vertex]);
    t.writes.push_back(query.recAddr[vertex]);
    t.computeInstrs = 10 + 8ull * graph.degree(vertex);
    return t;
}

void
AstarWorkload::emitInitialTasks(TaskSink &sink)
{
    for (std::uint32_t q = 0; q < queries.size(); ++q) {
        auto &query = queries[q];
        query.g[query.start] = 0;
        query.nextG[query.start] = 0;
        sink.enqueueTask(makeTask(q, query.start, 0));
    }
}

Task
AstarWorkload::makeQueryTask(std::uint64_t key, std::uint64_t seq)
{
    std::uint64_t slot = logQuery(key);
    abndp_assert(slot == seq, "served-log slot out of step: ", slot,
                 " vs ", seq);
    auto v = static_cast<std::uint32_t>(key);
    std::uint32_t goal = servedGoalOf(key);
    Task t;
    t.timestamp = 0;
    t.func = 1;
    t.arg = seq;
    // Every landmark's entry for the vertex and for the goal. The
    // goal-side entries are shared by all queries with that goal —
    // hot, read-only lines.
    for (std::uint32_t l = 0; l < numLandmarks; ++l) {
        t.hint.data.push_back(lmAddr[l][v]);
        t.hint.data.push_back(lmAddr[l][goal]);
    }
    t.computeInstrs = 4ull * numLandmarks;
    return t;
}

bool
AstarWorkload::verifyServed() const
{
    // Replay against the exact landmark tables (max-of-differences
    // recomputed here rather than through heuristic(), so a corrupted
    // log cannot hide behind shared code).
    for (const auto &rec : servedRecords()) {
        if (!rec.done)
            return false;
        auto v = static_cast<std::uint32_t>(rec.key);
        std::uint32_t goal = servedGoalOf(rec.key);
        std::uint32_t h = 0;
        for (std::uint32_t l = 0; l < numLandmarks; ++l) {
            std::uint32_t dc = landmarkDist[l][v];
            std::uint32_t dg = landmarkDist[l][goal];
            if (dc == inf || dg == inf)
                continue;
            h = std::max(h, dc > dg ? dc - dg : dg - dc);
        }
        if (rec.answer != h)
            return false;
    }
    return true;
}

void
AstarWorkload::executeTask(const Task &task, TaskSink &sink)
{
    if (servingActive()) {
        std::uint64_t seq = task.arg;
        const auto &rec = servedRecords()[seq];
        auto v = static_cast<std::uint32_t>(rec.key);
        recordAnswer(seq, heuristic(v, servedGoalOf(rec.key)));
        return;
    }
    auto qi = static_cast<std::uint32_t>(task.arg >> 32);
    auto v = static_cast<std::uint32_t>(task.arg & 0xffffffffu);
    Query &q = queries[qi];
    std::uint32_t gv = q.g[v];
    abndp_assert(gv != inf);
    if (q.bound != inf && gv + heuristic(v, q.goal) >= q.bound)
        return; // pruned: cannot beat the best known path
    for (std::uint32_t n : graph.neighbors(v)) {
        std::uint32_t ng = gv + 1;
        if (ng >= q.nextG[n])
            continue;
        if (q.bound != inf && ng + heuristic(n, q.goal) >= q.bound)
            continue;
        q.nextG[n] = ng;
        if (n == q.goal)
            q.nextBound = std::min(q.nextBound, ng);
        if (!q.enqueuedNext[n]) {
            q.enqueuedNext[n] = true;
            q.enqueuedList.push_back(n);
            sink.enqueueTask(makeTask(qi, n, task.timestamp + 1));
        }
    }
}

void
AstarWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    for (auto &q : queries) {
        q.g = q.nextG;
        q.bound = std::min(q.bound, q.nextBound);
        for (std::uint32_t c : q.enqueuedList)
            q.enqueuedNext[c] = false;
        q.enqueuedList.clear();
    }
    ++epochsRun;
}

bool
AstarWorkload::verify() const
{
    if (servingActive())
        return verifyServed();
    // Sequential replica of the same bulk-synchronous algorithm, per
    // query, with the same number of rounds; exact g-value comparison.
    for (const auto &query : queries) {
        std::vector<std::uint32_t> rg(graph.numVertices(), inf);
        std::vector<std::uint32_t> rnext(graph.numVertices(), inf);
        std::vector<bool> renq(graph.numVertices(), false);
        std::vector<std::uint32_t> frontier{query.start};
        std::uint32_t rbound = inf;
        rg[query.start] = rnext[query.start] = 0;
        for (std::uint64_t it = 0; it < epochsRun; ++it) {
            if (frontier.empty())
                break;
            std::vector<std::uint32_t> nextFrontier;
            std::uint32_t roundBound = rbound;
            for (std::uint32_t v : frontier) {
                std::uint32_t gv = rg[v];
                if (roundBound != inf
                    && gv + heuristic(v, query.goal) >= roundBound)
                    continue;
                for (std::uint32_t n : graph.neighbors(v)) {
                    std::uint32_t ng = gv + 1;
                    if (ng >= rnext[n])
                        continue;
                    if (roundBound != inf
                        && ng + heuristic(n, query.goal) >= roundBound)
                        continue;
                    rnext[n] = ng;
                    if (n == query.goal)
                        rbound = std::min(rbound, ng);
                    if (!renq[n]) {
                        renq[n] = true;
                        nextFrontier.push_back(n);
                    }
                }
            }
            rg = rnext;
            for (std::uint32_t c : nextFrontier)
                renq[c] = false;
            frontier = std::move(nextFrontier);
        }
        if (rg != query.g)
            return false;
    }
    return true;
}

} // namespace abndp

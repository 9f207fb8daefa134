#include "workloads/sssp.hh"

#include <bit>
#include <queue>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

SsspWorkload::SsspWorkload(Graph graph_, std::uint32_t source,
                           std::uint64_t seed)
    : graph(std::move(graph_)),
      // 16-byte record: {distance, flags}; adjacency entries carry a
      // 4-byte index plus a 4-byte weight.
      layout(graph, 16, 8),
      source(source),
      seed(seed),
      dist(graph.numVertices(), inf),
      nextDist(graph.numVertices(), inf),
      enqueuedNext(graph.numVertices(), false)
{
    abndp_assert(source < graph.numVertices());
}

double
SsspWorkload::weight(std::uint32_t v, std::size_t edgeIdx) const
{
    // Deterministic per-edge weight in [1, 17).
    std::uint64_t h = mix64(seed ^ (static_cast<std::uint64_t>(v) << 32)
                            ^ (graph.edgeOffset(v) + edgeIdx));
    return 1.0 + static_cast<double>(h % 1024) / 64.0;
}

void
SsspWorkload::setup(SimAllocator &alloc)
{
    layout.setup(alloc);
}

Task
SsspWorkload::makeTask(std::uint32_t v, std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.arg = v;
    layout.borrowVertexHint(v, t);
    t.writes.push_back(layout.vertexAddr(v));
    t.computeInstrs = 6 + 4ull * graph.degree(v);
    return t;
}

void
SsspWorkload::emitInitialTasks(TaskSink &sink)
{
    dist[source] = 0.0;
    nextDist[source] = 0.0;
    sink.enqueueTask(makeTask(source, 0));
}

void
SsspWorkload::onBeginServing()
{
    // Dijkstra over the directed relaxation edges (each undirected edge
    // carries one deterministic weight per direction, exactly as the
    // batch algorithm relaxes it).
    refDist.assign(graph.numVertices(), inf);
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    refDist[source] = 0.0;
    pq.push({0.0, source});
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        if (d > refDist[v])
            continue;
        auto nbrs = graph.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            double cand = d + weight(v, i);
            if (cand < refDist[nbrs[i]]) {
                refDist[nbrs[i]] = cand;
                pq.push({cand, nbrs[i]});
            }
        }
    }
}

Task
SsspWorkload::makeQueryTask(std::uint64_t key, std::uint64_t seq)
{
    std::uint64_t slot = logQuery(key);
    abndp_assert(slot == seq, "served-log slot out of step: ", slot,
                 " vs ", seq);
    auto v = static_cast<std::uint32_t>(key);
    Task t;
    t.timestamp = 0;
    t.func = 1;
    t.arg = seq;
    // Same footprint as one batch relaxation of v, borrowed from the
    // layout's run-lived lists (serving tasks outlive every epoch-arena
    // generation, which is why no arena may back them). No writes: the
    // oracle is read-only.
    layout.borrowVertexHint(v, t);
    t.computeInstrs = 6 + 4ull * graph.degree(v);
    return t;
}

void
SsspWorkload::executeTask(const Task &task, TaskSink &sink)
{
    if (servingActive()) {
        std::uint64_t seq = task.arg;
        auto v = static_cast<std::uint32_t>(servedRecords()[seq].key);
        recordAnswer(seq, std::bit_cast<std::uint64_t>(refDist[v]));
        return;
    }
    auto v = static_cast<std::uint32_t>(task.arg);
    double dv = dist[v];
    abndp_assert(dv != inf);
    auto nbrs = graph.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
        std::uint32_t n = nbrs[i];
        double cand = dv + weight(v, i);
        if (cand < nextDist[n]) {
            nextDist[n] = cand;
            if (!enqueuedNext[n]) {
                enqueuedNext[n] = true;
                enqueuedList.push_back(n);
                sink.enqueueTask(makeTask(n, task.timestamp + 1));
            }
        }
    }
}

void
SsspWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    dist = nextDist;
    for (std::uint32_t v : enqueuedList)
        enqueuedNext[v] = false;
    enqueuedList.clear();
    ++epochsRun;
}

bool
SsspWorkload::verifyServed() const
{
    // Independent reference: Bellman-Ford run to fixpoint (vs the
    // oracle's Dijkstra). Both accumulate each shortest path's dyadic
    // weights left to right, so agreement is exact and the comparison
    // can be bitwise.
    std::uint32_t n = graph.numVertices();
    std::vector<double> ref(n, inf);
    ref[source] = 0.0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (ref[v] == inf)
                continue;
            auto nbrs = graph.neighbors(v);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
                double cand = ref[v] + weight(v, i);
                if (cand < ref[nbrs[i]]) {
                    ref[nbrs[i]] = cand;
                    changed = true;
                }
            }
        }
    }
    for (const auto &rec : servedRecords()) {
        if (!rec.done)
            return false;
        auto v = static_cast<std::uint32_t>(rec.key);
        if (rec.answer != std::bit_cast<std::uint64_t>(ref[v]))
            return false;
    }
    return true;
}

bool
SsspWorkload::verify() const
{
    if (servingActive())
        return verifyServed();
    // Reference: bulk-synchronous Bellman-Ford with the same number of
    // relaxation rounds (exact for uncapped runs, which terminate when
    // no distance improves).
    std::uint32_t n = graph.numVertices();
    std::vector<double> ref(n, inf), nxt(n, inf);
    std::vector<bool> active(n, false);
    ref[source] = nxt[source] = 0.0;
    active[source] = true;
    for (std::uint64_t it = 0; it < epochsRun; ++it) {
        std::vector<bool> nextActive(n, false);
        for (std::uint32_t v = 0; v < n; ++v) {
            if (!active[v])
                continue;
            auto nbrs = graph.neighbors(v);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
                double cand = ref[v] + weight(v, i);
                if (cand < nxt[nbrs[i]]) {
                    nxt[nbrs[i]] = cand;
                    nextActive[nbrs[i]] = true;
                }
            }
        }
        ref = nxt;
        active = nextActive;
    }
    for (std::uint32_t v = 0; v < n; ++v)
        if (std::abs((ref[v] == inf ? -1.0 : ref[v])
                     - (dist[v] == inf ? -1.0 : dist[v])) > 1e-9)
            return false;
    return true;
}

} // namespace abndp

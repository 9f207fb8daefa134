#include "workloads/bfs.hh"

#include <queue>

#include "common/logging.hh"

namespace abndp
{

BfsWorkload::BfsWorkload(Graph graph_, std::uint32_t source)
    : graph(std::move(graph_)),
      // 8-byte record: {distance, flags}.
      layout(graph, 8),
      source(source),
      dist(graph.numVertices(), unreached),
      claimed(graph.numVertices(), false)
{
    abndp_assert(source < graph.numVertices());
}

void
BfsWorkload::setup(SimAllocator &alloc)
{
    layout.setup(alloc);
}

Task
BfsWorkload::makeTask(std::uint32_t v, std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.arg = v;
    layout.borrowVertexHint(v, t);
    t.writes.push_back(layout.vertexAddr(v));
    t.computeInstrs = 6 + 3ull * graph.degree(v);
    return t;
}

void
BfsWorkload::emitInitialTasks(TaskSink &sink)
{
    dist[source] = 0;
    claimed[source] = true;
    sink.enqueueTask(makeTask(source, 0));
}

void
BfsWorkload::executeTask(const Task &task, TaskSink &sink)
{
    auto v = static_cast<std::uint32_t>(task.arg);
    std::uint32_t d = dist[v];
    abndp_assert(d != unreached);
    for (std::uint32_t n : graph.neighbors(v)) {
        if (!claimed[n]) {
            claimed[n] = true;
            dist[n] = d + 1;
            sink.enqueueTask(makeTask(n, task.timestamp + 1));
        }
    }
}

bool
BfsWorkload::verify() const
{
    std::vector<std::uint32_t> ref(graph.numVertices(), unreached);
    std::queue<std::uint32_t> q;
    ref[source] = 0;
    q.push(source);
    while (!q.empty()) {
        std::uint32_t v = q.front();
        q.pop();
        for (std::uint32_t n : graph.neighbors(v)) {
            if (ref[n] == unreached) {
                ref[n] = ref[v] + 1;
                q.push(n);
            }
        }
    }
    // An epoch-capped run discovers exactly epochsRun levels beyond the
    // source; deeper vertices must still be unreached.
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v) {
        bool reachable = ref[v] != unreached && ref[v] <= epochsRun;
        if (reachable ? dist[v] != ref[v] : dist[v] != unreached)
            return false;
    }
    return true;
}

} // namespace abndp

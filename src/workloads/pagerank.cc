#include "workloads/pagerank.hh"

#include <cmath>

#include "common/logging.hh"

namespace abndp
{

PageRankWorkload::PageRankWorkload(Graph graph_, std::uint32_t maxIters,
                                   double epsilon, Placement placement)
    : graph(std::move(graph_)),
      transpose(graph.transposed()),
      // 16-byte record: {rank, 1/outDegree}.
      layout(transpose, 16, 4, placement),
      maxIters(maxIters),
      epsilon(epsilon)
{
    std::uint32_t n = graph.numVertices();
    outDeg.resize(n);
    for (std::uint32_t v = 0; v < n; ++v)
        outDeg[v] = graph.degree(v);
    curr.assign(n, 1.0 / n);
    next.assign(n, 1.0 / n);
}

void
PageRankWorkload::setup(SimAllocator &alloc)
{
    layout.setup(alloc);
}

Task
PageRankWorkload::makeTask(std::uint32_t v, std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.arg = v;
    // Reads: v's record, its in-neighbor list, the in-neighbors' records
    // (Algorithm 1 reads each in-neighbor's currPr / outDegree).
    layout.buildVertexTaskHint(v, t.hint, hintArena);
    t.writes.push_back(layout.vertexAddr(v));
    // ~4 instructions per neighbor contribution plus fixed overhead.
    t.computeInstrs = 8 + 4ull * transpose.degree(v);
    if (explicitLoadHints) {
        // The programmer knows the task cost exactly: compute plus one
        // nominal access per hint address (Section 3.1).
        t.hint.workload = t.computeInstrs + 51ull * t.hint.data.size();
    }
    return t;
}

void
PageRankWorkload::emitInitialTasks(TaskSink &sink)
{
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
        sink.enqueueTask(makeTask(v, 0));
}

void
PageRankWorkload::executeTask(const Task &task, TaskSink &sink)
{
    auto v = static_cast<std::uint32_t>(task.arg);
    double acc = 0.0;
    for (std::uint32_t n : transpose.neighbors(v)) {
        if (outDeg[n] > 0)
            acc += curr[n] / outDeg[n];
    }
    double val = damping * acc + (1.0 - damping) / graph.numVertices();
    next[v] = val;
    // Algorithm 1: keep iterating while the rank has not converged.
    bool more = std::abs(val - curr[v]) > epsilon;
    if (more && (maxIters == 0 || task.timestamp + 1 < maxIters))
        sink.enqueueTask(makeTask(v, task.timestamp + 1));
}

void
PageRankWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    curr.swap(next);
    next = curr; // converged vertices carry their rank forward
    ++epochsRun;
}

bool
PageRankWorkload::verify() const
{
    // Sequential reference with identical bulk-synchronous semantics:
    // re-run epochsRun Jacobi iterations with per-vertex freezing.
    std::uint32_t n = graph.numVertices();
    std::vector<double> ref(n, 1.0 / n);
    std::vector<bool> live(n, true);
    for (std::uint64_t it = 0; it < epochsRun; ++it) {
        std::vector<double> nxt = ref;
        for (std::uint32_t v = 0; v < n; ++v) {
            if (!live[v])
                continue;
            double acc = 0.0;
            for (std::uint32_t u : transpose.neighbors(v)) {
                if (outDeg[u] > 0)
                    acc += ref[u] / outDeg[u];
            }
            double val = damping * acc + (1.0 - damping) / n;
            nxt[v] = val;
            if (std::abs(val - ref[v]) <= epsilon)
                live[v] = false;
        }
        ref.swap(nxt);
    }
    for (std::uint32_t v = 0; v < n; ++v)
        if (std::abs(ref[v] - curr[v]) > 1e-9)
            return false;
    return true;
}

} // namespace abndp

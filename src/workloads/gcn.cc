#include "workloads/gcn.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

GcnWorkload::GcnWorkload(Graph graph_, std::uint32_t layers,
                         std::uint64_t seed)
    : graph(std::move(graph_)),
      // 64-byte record: 16 floats, exactly one cache line per vertex.
      layout(graph, featureDim * sizeof(float)),
      layers(layers),
      seed(seed)
{
    abndp_assert(layers >= 1);
    std::size_t n =
        static_cast<std::size_t>(graph.numVertices()) * featureDim;
    curr.resize(n);
    next.resize(n);
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
        for (std::uint32_t f = 0; f < featureDim; ++f)
            curr[static_cast<std::size_t>(v) * featureDim + f] =
                initialFeature(v, f);
}

float
GcnWorkload::initialFeature(std::uint32_t v, std::uint32_t f) const
{
    std::uint64_t h = mix64(seed ^ (static_cast<std::uint64_t>(v) << 8) ^ f);
    return static_cast<float>(h % 1000) / 1000.0f - 0.5f;
}

float
GcnWorkload::weightAt(std::uint32_t layer, std::uint32_t i,
                      std::uint32_t j) const
{
    std::uint64_t h = mix64(seed ^ 0xfeedULL ^ (layer * 1024 + i * 32 + j));
    return (static_cast<float>(h % 1000) / 1000.0f - 0.5f) * 0.5f;
}

void
GcnWorkload::setup(SimAllocator &alloc)
{
    layout.setup(alloc);
}

Task
GcnWorkload::makeTask(std::uint32_t v, std::uint64_t ts) const
{
    Task t;
    t.timestamp = ts;
    t.arg = v;
    layout.borrowVertexHint(v, t);
    t.writes.push_back(layout.vertexAddr(v));
    // deg * F aggregation MACs + F*F transform MACs.
    t.computeInstrs = static_cast<std::uint64_t>(graph.degree(v))
        * featureDim + featureDim * featureDim * 2;
    if (explicitLoadHints)
        t.hint.workload = t.computeInstrs + 51ull * t.hint.data.size();
    return t;
}

void
GcnWorkload::emitInitialTasks(TaskSink &sink)
{
    for (std::uint32_t v = 0; v < graph.numVertices(); ++v)
        sink.enqueueTask(makeTask(v, 0));
}

void
GcnWorkload::executeTask(const Task &task, TaskSink &sink)
{
    auto v = static_cast<std::uint32_t>(task.arg);
    auto layer = static_cast<std::uint32_t>(task.timestamp);

    // Mean aggregation over the neighborhood (self-inclusive).
    float agg[featureDim];
    for (std::uint32_t f = 0; f < featureDim; ++f)
        agg[f] = curr[static_cast<std::size_t>(v) * featureDim + f];
    for (std::uint32_t n : graph.neighbors(v))
        for (std::uint32_t f = 0; f < featureDim; ++f)
            agg[f] += curr[static_cast<std::size_t>(n) * featureDim + f];
    float inv = 1.0f / (1.0f + graph.degree(v));
    for (std::uint32_t f = 0; f < featureDim; ++f)
        agg[f] *= inv;

    // Dense transform + ReLU.
    float *out = &next[static_cast<std::size_t>(v) * featureDim];
    for (std::uint32_t i = 0; i < featureDim; ++i) {
        float acc = 0.0f;
        for (std::uint32_t j = 0; j < featureDim; ++j)
            acc += weightAt(layer, i, j) * agg[j];
        out[i] = acc > 0.0f ? acc : 0.0f;
    }

    if (layer + 1 < layers)
        sink.enqueueTask(makeTask(v, task.timestamp + 1));
}

void
GcnWorkload::endEpoch(std::uint64_t ts)
{
    (void)ts;
    curr.swap(next);
    ++epochsRun;
}

bool
GcnWorkload::verify() const
{
    std::uint32_t n = graph.numVertices();
    std::vector<float> ref(static_cast<std::size_t>(n) * featureDim);
    std::vector<float> nxt(ref.size());
    for (std::uint32_t v = 0; v < n; ++v)
        for (std::uint32_t f = 0; f < featureDim; ++f)
            ref[static_cast<std::size_t>(v) * featureDim + f] =
                initialFeature(v, f);

    for (std::uint32_t layer = 0; layer < epochsRun; ++layer) {
        for (std::uint32_t v = 0; v < n; ++v) {
            float agg[featureDim];
            for (std::uint32_t f = 0; f < featureDim; ++f)
                agg[f] = ref[static_cast<std::size_t>(v) * featureDim + f];
            for (std::uint32_t u : graph.neighbors(v))
                for (std::uint32_t f = 0; f < featureDim; ++f)
                    agg[f] +=
                        ref[static_cast<std::size_t>(u) * featureDim + f];
            float inv = 1.0f / (1.0f + graph.degree(v));
            for (std::uint32_t f = 0; f < featureDim; ++f)
                agg[f] *= inv;
            float *out = &nxt[static_cast<std::size_t>(v) * featureDim];
            for (std::uint32_t i = 0; i < featureDim; ++i) {
                float acc = 0.0f;
                for (std::uint32_t j = 0; j < featureDim; ++j)
                    acc += weightAt(layer, i, j) * agg[j];
                out[i] = acc > 0.0f ? acc : 0.0f;
            }
        }
        ref.swap(nxt);
    }

    for (std::size_t i = 0; i < ref.size(); ++i)
        if (std::abs(ref[i] - curr[i]) > 1e-5f)
            return false;
    return true;
}

} // namespace abndp

#include "workloads/factory.hh"

#include <limits>

#include "common/logging.hh"
#include "workloads/astar.hh"
#include "workloads/bfs.hh"
#include "workloads/gcn.hh"
#include "workloads/graph_gen.hh"
#include "workloads/graph_io.hh"
#include "workloads/kmeans.hh"
#include "workloads/knn.hh"
#include "workloads/kvstore.hh"
#include "workloads/pagerank.hh"
#include "workloads/spmv.hh"
#include "workloads/sssp.hh"

namespace abndp
{

WorkloadSpec
WorkloadSpec::tiny(const std::string &name)
{
    WorkloadSpec s;
    s.name = name;
    s.scale = 9;
    s.edgeFactor = 8;
    s.prIters = 3;
    s.kmeansPoints = 2048;
    s.kmeansIters = 3;
    s.knnPoints = 2048;
    s.knnQueries = 128;
    s.astarQueries = 4;
    s.kvKeys = 2048;
    s.kvLookups = 256;
    return s;
}

namespace
{

/** The input graph a workload reads. */
enum class GraphInput
{
    None,
    Directed,
    Undirected
};

/**
 * The graph workload @p name reads, if any: the one list of graph
 * workloads, read by both the rule set and the constructor dispatch.
 */
GraphInput
graphInputOf(const std::string &name)
{
    if (name == "pr" || name == "spmv")
        return GraphInput::Directed;
    if (name == "bfs" || name == "sssp" || name == "astar" || name == "gcn")
        return GraphInput::Undirected;
    return GraphInput::None;
}

Graph
specGraph(const WorkloadSpec &spec, bool undirected)
{
    if (!spec.graphFile.empty())
        return loadEdgeList(spec.graphFile, undirected);
    RmatParams p;
    p.scale = spec.scale;
    p.edgeFactor = spec.edgeFactor;
    p.seed = spec.seed;
    p.undirected = undirected;
    return makeRmatGraph(p);
}

} // namespace

std::string
WorkloadSpec::validationError() const
{
    using logging_detail::concat;
    if (graphInputOf(name) != GraphInput::None && graphFile.empty()) {
        // R-MAT draws edgeFactor edges per vertex and may store each
        // as two arcs: 2^scale vertices and 2 * edgeFactor * 2^scale
        // arcs must fit in 32 bits. maxScale is the last scale whose
        // arcs fit at this edge factor (-1 when none does).
        constexpr std::uint64_t max32 =
            std::numeric_limits<std::uint32_t>::max();
        int maxScale = -1;
        for (int s = 31; s >= 0 && maxScale < 0; --s)
            if (edgeFactor <= max32 >> (s + 1))
                maxScale = s;
        if (maxScale < 0)
            return concat("edgeFactor ", edgeFactor, " is too large: ",
                          "2 * edgeFactor arcs per vertex must fit in 32 "
                          "bits (at most ", max32 >> 1, ")");
        if (scale > static_cast<std::uint32_t>(maxScale))
            return concat("scale ", scale, " is too large: at edgeFactor ",
                          edgeFactor, " the R-MAT input's 2^scale vertices "
                          "and 2 * edgeFactor * 2^scale arcs fit in 32 "
                          "bits only up to scale ", maxScale);
        if (name == "astar" && scale < 1)
            return "scale must be at least 1 for astar (a query needs "
                   "two vertices)";
    }

    if (name == "astar" && astarQueries < 1)
        return concat("astarQueries ", astarQueries,
                      " must be at least 1: astar has no task without "
                      "a query");
    if (name == "gcn" && gcnLayers < 1)
        return "gcnLayers must be at least 1";
    if (name == "spmv" && spmvIters < 1)
        return "spmvIters must be at least 1";
    if (name == "kmeans") {
        if (kmeansClusters < 1)
            return "kmeansClusters must be at least 1";
        if (kmeansPoints < kmeansClusters)
            return concat("kmeansPoints ", kmeansPoints,
                          " must be at least kmeansClusters (",
                          kmeansClusters, "): the first k points seed "
                          "the centroids");
        if (kmeansIters < 1)
            return "kmeansIters must be at least 1";
    }
    if (name == "knn") {
        if (knnK < 1)
            return "knnK must be at least 1";
        if (knnPoints < knnK)
            return concat("knnPoints ", knnPoints, " must be at least knnK (",
                          knnK, "): every query reports k neighbours");
    }
    return "";
}

std::string
WorkloadSpec::inputName() const
{
    using logging_detail::concat;
    if (graphInputOf(name) == GraphInput::None)
        return concat("the ", name, " input");
    if (!graphFile.empty())
        return concat("graph file '", graphFile, "'");
    return concat("the R-MAT input at scale ", scale, ", edge factor ",
                  edgeFactor);
}

std::unique_ptr<Workload>
makeWorkloadImpl(const WorkloadSpec &spec)
{
    if (const GraphInput input = graphInputOf(spec.name);
        input != GraphInput::None) {
        Graph g = specGraph(spec, input == GraphInput::Undirected);
        if (spec.name == "pr")
            return std::make_unique<PageRankWorkload>(std::move(g),
                                                      spec.prIters);
        if (spec.name == "bfs")
            return std::make_unique<BfsWorkload>(std::move(g), 0);
        if (spec.name == "sssp")
            return std::make_unique<SsspWorkload>(std::move(g), 0,
                                                  spec.seed);
        if (spec.name == "astar")
            return std::make_unique<AstarWorkload>(std::move(g),
                                                   spec.astarQueries,
                                                   spec.seed);
        if (spec.name == "gcn")
            return std::make_unique<GcnWorkload>(std::move(g),
                                                 spec.gcnLayers, spec.seed);
        if (spec.name == "spmv")
            return std::make_unique<SpmvWorkload>(std::move(g),
                                                  spec.spmvIters, spec.seed);
    }
    if (spec.name == "kmeans")
        return std::make_unique<KmeansWorkload>(spec.kmeansPoints,
                                                spec.kmeansClusters,
                                                spec.kmeansIters,
                                                spec.seed);
    if (spec.name == "knn")
        return std::make_unique<KnnWorkload>(spec.knnPoints,
                                             spec.knnQueries, spec.knnK,
                                             spec.knnHotFraction,
                                             spec.seed, spec.knnLeafSize);
    if (spec.name == "kv")
        return std::make_unique<KvStoreWorkload>(spec.kvKeys,
                                                 spec.kvLookups,
                                                 spec.seed);
    fatal("unknown workload: ", spec.name);
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec)
{
    if (auto e = spec.validationError(); !e.empty())
        fatal(e);
    auto wl = makeWorkloadImpl(spec);
    wl->setExplicitLoadHints(spec.explicitLoadHints);
    return wl;
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names{
        "pr", "bfs", "sssp", "astar", "gcn", "kmeans", "knn", "spmv"};
    return names;
}

const std::vector<std::string> &
representativeWorkloadNames()
{
    static const std::vector<std::string> names{"pr", "bfs", "gcn", "knn",
                                                "spmv"};
    return names;
}

} // namespace abndp

/**
 * @file
 * Workload factory: builds any of the eight evaluation applications
 * (Section 6) from a size specification, with deterministic synthetic
 * inputs (see DESIGN.md substitutions).
 */

#ifndef ABNDP_WORKLOADS_FACTORY_HH
#define ABNDP_WORKLOADS_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace abndp
{

/** Input sizes for every workload (defaults = benchmark scale). */
struct WorkloadSpec
{
    /**
     * Which application: pr, bfs, sssp, astar, gcn, kmeans, knn, spmv,
     * or the extra serving microbenchmark kv.
     */
    std::string name = "pr";

    std::uint64_t seed = 42;

    // Graph applications (pr, bfs, sssp, astar, gcn, spmv): R-MAT
    // inputs, or a SNAP-style edge-list file when graphFile is set.
    std::uint32_t scale = 14;
    std::uint32_t edgeFactor = 16;
    std::string graphFile;
    /** Programmer-supplied hint.workload (vs scheduler estimation). */
    bool explicitLoadHints = false;

    // pr
    std::uint32_t prIters = 4;

    // gcn
    std::uint32_t gcnLayers = 2;

    // spmv
    std::uint32_t spmvIters = 3;

    // kmeans
    std::uint64_t kmeansPoints = 1ull << 16;
    std::uint32_t kmeansClusters = 16;
    std::uint32_t kmeansIters = 4;

    // knn
    std::uint32_t knnPoints = 1u << 16;
    std::uint32_t knnQueries = 4096;
    std::uint32_t knnK = 4;
    double knnHotFraction = 0.8;
    std::uint32_t knnLeafSize = 64;

    // astar (ALT-A* over the R-MAT graph)
    std::uint32_t astarQueries = 16;

    // kv (B+-tree point lookups; the serving-mode microbenchmark —
    // not part of the paper's Figure-6 suite)
    std::uint64_t kvKeys = 1ull << 16;
    std::uint32_t kvLookups = 4096;

    /** Reduced sizes for unit/integration tests. */
    static WorkloadSpec tiny(const std::string &name);

    /**
     * The first rule this spec breaks, as the message makeWorkload()
     * would fatal() with; "" when the spec is valid. Only the knobs of
     * the named workload are checked (and the R-MAT size knobs only
     * without a graphFile), so dormant knobs may hold anything; an
     * unknown name breaks no rule here (makeWorkload() refuses it). The
     * workload constructors keep their asserts as panics for simulator
     * bugs; these rules refuse the user inputs that would reach them.
     */
    std::string validationError() const;

    /**
     * This spec's input, for messages: the graph file, the R-MAT
     * scale and edge factor, or the workload's generated input.
     */
    std::string inputName() const;
};

/**
 * Instantiate a workload; fatal() on an invalid spec (see above) or an
 * unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const WorkloadSpec &spec);

/** The paper's benchmark suite, in Figure-6 order. */
const std::vector<std::string> &allWorkloadNames();

/** The Figure 8/9 representative subset: pr, bfs, gcn, knn, spmv. */
const std::vector<std::string> &representativeWorkloadNames();

} // namespace abndp

#endif // ABNDP_WORKLOADS_FACTORY_HH

/**
 * @file
 * Page Rank in the task model (paper Algorithm 1): one task per vertex
 * per iteration reads every neighbor's rank/out-degree and writes the
 * vertex's next rank; tasks for the next iteration are enqueued until
 * convergence.
 *
 * A task reads only the in-neighbors of its vertex and their
 * out-degrees, so the workload keeps the transpose and the degree
 * array and lets the link graph go once its constructor has built
 * them from it.
 */

#ifndef ABNDP_WORKLOADS_PAGERANK_HH
#define ABNDP_WORKLOADS_PAGERANK_HH

#include <cstdint>
#include <vector>

#include "workloads/graph.hh"
#include "workloads/graph_layout.hh"
#include "workloads/workload.hh"

namespace abndp
{

/** Bulk-synchronous Page Rank. */
class PageRankWorkload : public Workload
{
  public:
    /**
     * @param graph input link graph (directed interpretation for
     *        ranks); only its transpose and out-degrees are kept
     * @param maxIters stop after this many iterations (0 = converge)
     * @param epsilon per-vertex convergence threshold
     */
    explicit PageRankWorkload(Graph graph, std::uint32_t maxIters = 0,
                              double epsilon = 1e-7,
                              Placement placement =
                                  Placement::Interleaved);

    std::string name() const override { return "pr"; }
    void setup(SimAllocator &alloc) override;
    void emitInitialTasks(TaskSink &sink) override;
    void executeTask(const Task &task, TaskSink &sink) override;
    void endEpoch(std::uint64_t ts) override;
    bool verify() const override;

    const std::vector<double> &ranks() const { return curr; }
    std::uint64_t iterationsRun() const { return epochsRun; }

  private:
    Task makeTask(std::uint32_t v, std::uint64_t ts) const;

    /**
     * Transpose of the link graph (in which u -> v means u links to
     * v): per vertex, the in-neighbors whose rank flows in.
     */
    Graph transpose;
    /** Out-degrees in the link graph (rank mass divisor). */
    std::vector<std::uint32_t> outDeg;
    GraphLayout layout;
    std::uint32_t maxIters;
    double epsilon;
    double damping = 0.85;

    std::vector<double> curr;
    std::vector<double> next;
    std::uint64_t epochsRun = 0;
};

} // namespace abndp

#endif // ABNDP_WORKLOADS_PAGERANK_HH

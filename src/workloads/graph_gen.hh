/**
 * @file
 * Deterministic synthetic graph generators.
 *
 * Real-world graphs (SNAP) in the paper exhibit power-law degree
 * distributions; the R-MAT generator reproduces that skew and is the
 * default input of the benchmark harnesses (see DESIGN.md substitutions).
 */

#ifndef ABNDP_WORKLOADS_GRAPH_GEN_HH
#define ABNDP_WORKLOADS_GRAPH_GEN_HH

#include <cstdint>

#include "workloads/graph.hh"

namespace abndp
{

/** R-MAT parameters; defaults are the classic (0.57, 0.19, 0.19, 0.05). */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    /** d is implicitly 1 - a - b - c. */
    std::uint32_t scale = 14;      ///< 2^scale vertices
    std::uint32_t edgeFactor = 16; ///< edges per vertex
    std::uint64_t seed = 42;
    bool undirected = true;
};

/**
 * The quadrant one R-MAT step picks for a uniform draw @p r in [0, 1):
 * the number of cumulative thresholds t0 = a, t1 = a + b and
 * t2 = a + b + c at or below @p r, so a draw equal to a threshold
 * takes the higher quadrant. Needs t0 <= t1 <= t2. Branch-free, since
 * every draw is random and a compare chain would mispredict.
 */
inline std::uint32_t
rmatQuadrant(double r, double t0, double t1, double t2)
{
    return static_cast<std::uint32_t>(r >= t0) + (r >= t1) + (r >= t2);
}

/** Power-law (scale-free) graph via recursive matrix sampling. */
Graph makeRmatGraph(const RmatParams &params);

/** Erdos-Renyi-style uniform random graph. */
Graph makeUniformGraph(std::uint32_t numVertices, std::uint64_t numEdges,
                       std::uint64_t seed, bool undirected = true);

/** 2D grid graph (width x height, 4-neighborhood). */
Graph makeGridGraph(std::uint32_t width, std::uint32_t height);

} // namespace abndp

#endif // ABNDP_WORKLOADS_GRAPH_GEN_HH

/**
 * @file
 * Graph file I/O: the SNAP-style whitespace edge-list format used by the
 * datasets the paper evaluates on ("# comment" lines, then one
 * "src dst" pair per line). Lets users run the benchmark suite on real
 * graphs instead of the synthetic R-MAT inputs.
 */

#ifndef ABNDP_WORKLOADS_GRAPH_IO_HH
#define ABNDP_WORKLOADS_GRAPH_IO_HH

#include <string>

#include "workloads/graph.hh"

namespace abndp
{

/**
 * Load a SNAP-style edge list. Vertex ids are used as-is; the vertex
 * count is max id + 1. fatal() on unreadable files, malformed lines,
 * or ids of 2^32 - 1 and above (the count would not fit in 32 bits).
 *
 * @param undirected store both arc directions
 */
Graph loadEdgeList(const std::string &path, bool undirected);

/** Write a graph back out as an edge list (one arc per line). */
void saveEdgeList(const Graph &graph, const std::string &path);

} // namespace abndp

#endif // ABNDP_WORKLOADS_GRAPH_IO_HH

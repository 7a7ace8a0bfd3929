// Weighted shortest paths on snapshots of the (sub)graph. Used by the
// legality checker (min-kappa-weight level-s paths) and the gradient-skew
// metrics (kappa distance between node pairs).
#pragma once

#include <functional>
#include <vector>

#include "util/common.h"

namespace gcs {

struct WeightedEdge {
  NodeId to = kNoNode;
  double weight = 0.0;
};

/// Adjacency-list snapshot; build once per measurement instant.
using AdjacencyList = std::vector<std::vector<WeightedEdge>>;

/// Build an adjacency list from an undirected edge list with a weight
/// function. Edges with non-positive weight are rejected.
AdjacencyList build_adjacency(
    int n, const std::vector<EdgeKey>& edges,
    const std::function<double(const EdgeKey&)>& weight);

/// Single-source shortest path distances (Dijkstra); unreachable = +inf.
std::vector<double> dijkstra(const AdjacencyList& adj, NodeId src);

/// Single-source hop counts (BFS); unreachable = -1.
std::vector<int> bfs_hops(const AdjacencyList& adj, NodeId src);

/// Max over pairs of shortest-path weight; +inf if disconnected, 0 if n<=1.
/// Trees take a double sweep (two Dijkstras); graphs whose edges all share
/// one weight take BFS from every source, bit-identical to Dijkstra; mixed
/// weights run Dijkstra from every source.
double weighted_diameter(const AdjacencyList& adj);

}  // namespace gcs

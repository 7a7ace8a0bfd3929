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
/// function. Edges with non-positive weight or an endpoint outside [0, n)
/// are rejected.
AdjacencyList build_adjacency(
    int n, const std::vector<EdgeKey>& edges,
    const std::function<double(const EdgeKey&)>& weight);

/// Single-source shortest path distances (Dijkstra); unreachable = +inf.
std::vector<double> dijkstra(const AdjacencyList& adj, NodeId src);

/// Single-source hop counts (BFS); unreachable = -1.
std::vector<int> bfs_hops(const AdjacencyList& adj, NodeId src);

/// Exact hop diameter (weights ignored); -1 if disconnected, 0 if n<=1. A
/// 4-sweep picks a central node, then iFUB runs BFS only from the nodes
/// farthest from it until the bounds meet: 5 BFS on the 64x64 grid. Never
/// more than n BFS, which symmetric graphs (ring, torus, complete) approach.
int hop_diameter(const AdjacencyList& adj);

/// Max over pairs of shortest-path weight; +inf if disconnected, 0 if n<=1.
/// Trees take a double sweep (two Dijkstras); graphs whose edges all share
/// one weight take hop_diameter, bit-identical to Dijkstra; mixed weights run
/// Dijkstra from every source.
double weighted_diameter(const AdjacencyList& adj);

}  // namespace gcs

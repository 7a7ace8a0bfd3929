#include "graph/paths.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

namespace gcs {

AdjacencyList build_adjacency(
    int n, const std::vector<EdgeKey>& edges,
    const std::function<double(const EdgeKey&)>& weight) {
  AdjacencyList adj(static_cast<std::size_t>(n));
  for (const auto& e : edges) {
    const double w = weight(e);
    if (w <= 0.0) [[unlikely]] {
      throw std::runtime_error("build_adjacency: non-positive edge weight on " +
                               e.str());
    }
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, w});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, w});
  }
  return adj;
}

std::vector<double> dijkstra(const AdjacencyList& adj, NodeId src) {
  const auto n = adj.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist.at(static_cast<std::size_t>(src)) = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& edge : adj[static_cast<std::size_t>(u)]) {
      const double nd = d + edge.weight;
      if (nd < dist[static_cast<std::size_t>(edge.to)]) {
        dist[static_cast<std::size_t>(edge.to)] = nd;
        heap.emplace(nd, edge.to);
      }
    }
  }
  return dist;
}

std::vector<int> bfs_hops(const AdjacencyList& adj, NodeId src) {
  std::vector<int> dist(adj.size(), -1);
  std::deque<NodeId> frontier{src};
  dist.at(static_cast<std::size_t>(src)) = 0;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const auto& edge : adj[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(edge.to)] < 0) {
        dist[static_cast<std::size_t>(edge.to)] = dist[static_cast<std::size_t>(u)] + 1;
        frontier.push_back(edge.to);
      }
    }
  }
  return dist;
}

namespace {

NodeId farthest_node(const std::vector<double>& dist) {
  NodeId best = 0;
  for (NodeId v = 1; v < static_cast<NodeId>(dist.size()); ++v) {
    if (dist[static_cast<std::size_t>(v)] > dist[static_cast<std::size_t>(best)]) {
      best = v;
    }
  }
  return best;
}

}  // namespace

double weighted_diameter(const AdjacencyList& adj) {
  if (adj.size() <= 1) return 0.0;
  std::size_t degree_sum = 0;
  for (const auto& nbrs : adj) degree_sum += nbrs.size();
  if (degree_sum == 2 * (adj.size() - 1)) {
    // n-1 undirected edges: connected => tree (disconnected shows up as +inf
    // below either way). On a tree the classic double sweep finds the exact
    // diameter with two Dijkstras instead of n: the farthest node from any
    // start is a diameter endpoint. Together with the uniform-weight branch
    // below, this keeps large-scenario construction (suggest_gtilde) out of
    // O(n^2 log n).
    const auto from_start = dijkstra(adj, 0);
    const NodeId a = farthest_node(from_start);
    if (!std::isfinite(from_start[static_cast<std::size_t>(a)])) {
      return kTimeInf;
    }
    const auto from_a = dijkstra(adj, a);
    return from_a[static_cast<std::size_t>(farthest_node(from_a))];
  }
  const WeightedEdge* first = nullptr;
  bool uniform = true;
  for (const auto& nbrs : adj) {
    for (const auto& edge : nbrs) {
      if (first == nullptr) first = &edge;
      uniform = uniform && edge.weight == first->weight;
    }
  }
  if (uniform) {
    // One weight w everywhere (suggest_gtilde's kappa graph): BFS from every
    // source in O(n * m). Bit-identical to Dijkstra: each relaxation adds w to
    // a settled distance, so a node h hops away gets the h-fold sequential sum
    // S(h), and S never decreases.
    int hops = 0;
    for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
      for (int h : bfs_hops(adj, u)) {
        if (h < 0) return kTimeInf;
        hops = std::max(hops, h);
      }
    }
    double diameter = 0.0;
    for (int h = 0; h < hops; ++h) diameter += first->weight;
    return diameter;
  }
  double diameter = 0.0;
  for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
    const auto dist = dijkstra(adj, u);
    for (double d : dist) diameter = std::max(diameter, d);
  }
  return diameter;
}

}  // namespace gcs

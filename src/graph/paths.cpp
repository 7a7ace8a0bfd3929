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
    if (e.a < 0 || e.b >= n) [[unlikely]] {
      throw std::runtime_error("build_adjacency: endpoint outside [0, " +
                               std::to_string(n) + ") on " + e.str());
    }
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

int hop_diameter(const AdjacencyList& adj) {
  const std::size_t n = adj.size();
  if (n <= 1) return 0;
  // ecc[v]: v's eccentricity once a BFS has run from v, else -1; lb: the
  // largest found. far[v]: v's largest hop count to any sweep source.
  std::vector<int> ecc(n, -1);
  std::vector<int> far(n, 0);
  std::vector<std::pair<std::size_t, std::vector<int>>> sweeps;
  int lb = 0;
  const auto bfs = [&](std::size_t src) {
    auto hops = bfs_hops(adj, static_cast<NodeId>(src));
    ecc[src] = *std::ranges::max_element(hops);
    lb = std::max(lb, ecc[src]);
    return hops;
  };
  // Hop counts from src, one BFS per source across the sweeps.
  const auto sweep = [&](std::size_t src) -> const std::vector<int>& {
    for (const auto& [s, hops] : sweeps) {
      if (s == src) return hops;
    }
    auto hops = bfs(src);
    for (std::size_t v = 0; v < n; ++v) far[v] = std::max(far[v], hops[v]);
    return sweeps.emplace_back(src, std::move(hops)).second;
  };
  // First node at the largest hop count from src.
  const auto farthest = [&](std::size_t src) {
    const auto& hops = sweep(src);
    return static_cast<std::size_t>(std::ranges::max_element(hops) - hops.begin());
  };
  // First node minimising its largest hop count to the sources swept so far.
  const auto center = [&] {
    return static_cast<std::size_t>(std::ranges::min_element(far) - far.begin());
  };
  if (std::ranges::count(sweep(0), -1) > 0) return -1;
  // 4-sweep (Magnien, Latapy & Habib, JEA 2009) for a lower bound and a
  // central u, then iFUB (Crescenzi et al., TCS 2013): once every node more
  // than i hops from u has its eccentricity, a longer path could only join
  // two nodes within i hops of u, so the diameter is lb once lb >= 2i.
  sweep(farthest(farthest(0)));
  sweep(farthest(farthest(center())));
  const std::size_t u = center();
  const auto& from_u = sweep(u);
  for (int i = ecc[u]; lb < 2 * i; --i) {
    for (std::size_t v = 0; v < n; ++v) {
      if (from_u[v] == i && ecc[v] < 0) bfs(v);
    }
  }
  return lb;
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
    // One weight w everywhere (suggest_gtilde's kappa graph). Bit-identical to
    // Dijkstra: each relaxation adds w to a settled distance, so a node h hops
    // away gets the h-fold sequential sum S(h), and S never decreases.
    const int hops = hop_diameter(adj);
    if (hops < 0) return kTimeInf;
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

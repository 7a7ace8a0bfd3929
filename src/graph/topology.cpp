#include "graph/topology.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "graph/paths.h"

namespace gcs {

std::vector<EdgeKey> topo_line(int n) {
  require(n >= 1, "topo_line: n >= 1");
  std::vector<EdgeKey> edges;
  edges.reserve(static_cast<std::size_t>(std::max(0, n - 1)));
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return edges;
}

std::vector<EdgeKey> topo_ring(int n) {
  require(n >= 3, "topo_ring: n >= 3");
  auto edges = topo_line(n);
  edges.emplace_back(0, n - 1);
  return edges;
}

std::vector<EdgeKey> topo_grid(int rows, int cols) {
  require(rows >= 1 && cols >= 1, "topo_grid: rows, cols >= 1");
  std::vector<EdgeKey> edges;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return edges;
}

std::vector<EdgeKey> topo_torus(int rows, int cols) {
  require(rows >= 3 && cols >= 3, "topo_torus: rows, cols >= 3");
  auto edges = topo_grid(rows, cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) edges.emplace_back(id(r, 0), id(r, cols - 1));
  for (int c = 0; c < cols; ++c) edges.emplace_back(id(0, c), id(rows - 1, c));
  return edges;
}

std::vector<EdgeKey> topo_star(int n) {
  require(n >= 2, "topo_star: n >= 2");
  std::vector<EdgeKey> edges;
  for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
  return edges;
}

std::vector<EdgeKey> topo_complete(int n) {
  require(n >= 2, "topo_complete: n >= 2");
  std::vector<EdgeKey> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return edges;
}

std::vector<EdgeKey> topo_hypercube(int dim) {
  require(dim >= 1 && dim <= 20, "topo_hypercube: dim in [1,20]");
  const int n = 1 << dim;
  std::vector<EdgeKey> edges;
  for (int u = 0; u < n; ++u) {
    for (int bit = 0; bit < dim; ++bit) {
      const int v = u ^ (1 << bit);
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

std::vector<EdgeKey> topo_barbell(int k, int path_len) {
  require(k >= 2 && path_len >= 0, "topo_barbell: k >= 2, path_len >= 0");
  std::vector<EdgeKey> edges;
  // Left clique: nodes [0, k).
  for (int i = 0; i < k; ++i)
    for (int j = i + 1; j < k; ++j) edges.emplace_back(i, j);
  // Path: nodes [k, k+path_len).
  NodeId prev = k - 1;
  for (int i = 0; i < path_len; ++i) {
    edges.emplace_back(prev, k + i);
    prev = k + i;
  }
  // Right clique: nodes [k+path_len, 2k+path_len); attach to the path end.
  const int right = k + path_len;
  edges.emplace_back(prev, right);
  for (int i = right; i < right + k; ++i)
    for (int j = i + 1; j < right + k; ++j) edges.emplace_back(i, j);
  return edges;
}

std::vector<EdgeKey> topo_clusters(int k, int s, int bridges) {
  require(k >= 1 && s >= 2 && bridges >= 1, "topo_clusters: k >= 1, s >= 2, bridges >= 1");
  const int b = std::min(bridges, s);
  std::vector<EdgeKey> edges;
  for (int c = 0; c < k; ++c) {
    const int base = c * s;
    for (int i = 0; i < s; ++i)
      for (int j = i + 1; j < s; ++j) edges.emplace_back(base + i, base + j);
    if (c + 1 < k) {
      for (int i = 0; i < b; ++i) edges.emplace_back(base + i, base + s + i);
    }
  }
  return edges;
}

std::vector<EdgeKey> topo_random_tree(int n, Rng& rng) {
  require(n >= 1, "topo_random_tree: n >= 1");
  std::vector<EdgeKey> edges;
  for (int i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(i)));
    edges.emplace_back(parent, i);
  }
  return edges;
}

namespace {
bool edge_list_connected(int n, const std::vector<EdgeKey>& edges) {
  if (n <= 1) return true;
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (const auto& e : edges) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::deque<NodeId> frontier{0};
  seen[0] = 1;
  int count = 1;
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : adj[static_cast<std::size_t>(u)]) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++count;
        frontier.push_back(v);
      }
    }
  }
  return count == n;
}
}  // namespace

std::vector<EdgeKey> topo_gnp_connected(int n, double p, Rng& rng, int max_attempts) {
  require(n >= 2 && p >= 0.0 && p <= 1.0, "topo_gnp_connected: bad arguments");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<EdgeKey> edges;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (rng.chance(p)) edges.emplace_back(i, j);
    if (edge_list_connected(n, edges)) return edges;
  }
  // Fallback: sampled graph plus a random spanning tree to force connectivity.
  std::vector<EdgeKey> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.chance(p)) edges.emplace_back(i, j);
  auto tree = topo_random_tree(n, rng);
  for (const auto& e : tree) {
    if (std::find(edges.begin(), edges.end(), e) == edges.end()) edges.push_back(e);
  }
  return edges;
}

std::vector<EdgeKey> edges_within_radius(const std::vector<Point2>& positions,
                                         double radius) {
  std::vector<EdgeKey> edges;
  const int n = static_cast<int>(positions.size());
  const double r2 = radius * radius;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double dx = positions[static_cast<std::size_t>(i)].x -
                        positions[static_cast<std::size_t>(j)].x;
      const double dy = positions[static_cast<std::size_t>(i)].y -
                        positions[static_cast<std::size_t>(j)].y;
      if (dx * dx + dy * dy <= r2) edges.emplace_back(i, j);
    }
  }
  return edges;
}

std::vector<EdgeKey> topo_random_geometric(int n, double radius, Rng& rng,
                                           std::vector<Point2>* positions) {
  require(n >= 2 && radius > 0.0, "topo_random_geometric: bad arguments");
  std::vector<Point2> pos(static_cast<std::size_t>(n));
  for (auto& p : pos) {
    p.x = rng.uniform01();
    p.y = rng.uniform01();
  }
  double r = radius;
  std::vector<EdgeKey> edges = edges_within_radius(pos, r);
  while (!edge_list_connected(n, edges) && r < 2.0) {
    r *= 1.1;
    edges = edges_within_radius(pos, r);
  }
  if (positions != nullptr) *positions = std::move(pos);
  return edges;
}

int hop_diameter(int n, const std::vector<EdgeKey>& edges) {
  return hop_diameter(build_adjacency(n, edges, [](const EdgeKey&) { return 1.0; }));
}

// --------------------------------------------------------------------------
// Registration. Each entry documents its parameters; the node count comes
// from the scenario (TopologyArgs::n) unless the generator's own parameters
// determine it (grid, torus, hypercube, barbell).

namespace {

TopologyResult plain(int n, std::vector<EdgeKey> edges) {
  return TopologyResult{n, std::move(edges), {}};
}

void register_builtin_topologies(Registry<TopologyFactory>& r) {
  using E = Registry<TopologyFactory>::Entry;
  r.add(E{"line", "path v0-v1-...-v(n-1)", {},
          [](const ParamMap&, const TopologyArgs& a) { return plain(a.n, topo_line(a.n)); }});
  r.add(E{"ring", "line plus the closing edge", {},
          [](const ParamMap&, const TopologyArgs& a) { return plain(a.n, topo_ring(a.n)); }});
  r.add(E{"star", "node 0 connected to all others", {},
          [](const ParamMap&, const TopologyArgs& a) { return plain(a.n, topo_star(a.n)); }});
  r.add(E{"complete", "all pairs", {},
          [](const ParamMap&, const TopologyArgs& a) {
            return plain(a.n, topo_complete(a.n));
          }});
  r.add(E{"grid",
          "rows x cols grid, 4-neighborhood (n = rows*cols)",
          {{"rows", "4", "grid rows"}, {"cols", "4", "grid columns"}},
          [](const ParamMap& p, const TopologyArgs&) {
            const int rows = p.get_int("rows", 4);
            const int cols = p.get_int("cols", 4);
            return plain(rows * cols, topo_grid(rows, cols));
          }});
  r.add(E{"torus",
          "grid with wrap-around links (n = rows*cols)",
          {{"rows", "4", "grid rows"}, {"cols", "4", "grid columns"}},
          [](const ParamMap& p, const TopologyArgs&) {
            const int rows = p.get_int("rows", 4);
            const int cols = p.get_int("cols", 4);
            return plain(rows * cols, topo_torus(rows, cols));
          }});
  r.add(E{"hypercube",
          "dim-dimensional hypercube (n = 2^dim)",
          {{"dim", "4", "dimension"}},
          [](const ParamMap& p, const TopologyArgs&) {
            const int dim = p.get_int("dim", 4);
            return plain(1 << dim, topo_hypercube(dim));
          }});
  r.add(E{"barbell",
          "two k-cliques joined by a path (n = 2k + path)",
          {{"k", "5", "clique size"}, {"path", "6", "joining path length"}},
          [](const ParamMap& p, const TopologyArgs&) {
            const int k = p.get_int("k", 5);
            const int path = p.get_int("path", 6);
            return plain(2 * k + path, topo_barbell(k, path));
          }});
  r.add(E{"clusters",
          "k s-cliques in a chain, consecutive cliques joined by `bridges` edges "
          "(n = k*s)",
          {{"k", "4", "clique count"},
           {"s", "8", "clique size"},
           {"bridges", "1", "parallel edges between consecutive cliques"}},
          [](const ParamMap& p, const TopologyArgs&) {
            const int k = p.get_int("k", 4);
            const int s = p.get_int("s", 8);
            const int bridges = p.get_int("bridges", 1);
            return plain(k * s, topo_clusters(k, s, bridges));
          }});
  r.add(E{"tree", "uniform random spanning tree", {},
          [](const ParamMap&, const TopologyArgs& a) {
            return plain(a.n, topo_random_tree(a.n, a.rng));
          }});
  r.add(E{"gnp",
          "Erdos-Renyi G(n,p) conditioned on connectivity",
          {{"p", "0.2", "edge probability"}},
          [](const ParamMap& p, const TopologyArgs& a) {
            return plain(a.n, topo_gnp_connected(a.n, p.get_double("p", 0.2), a.rng));
          }});
  r.add(E{"geometric",
          "random geometric graph in the unit square (radius grown until connected)",
          {{"radius", "0.35", "connection radius"}},
          [](const ParamMap& p, const TopologyArgs& a) {
            TopologyResult out;
            out.n = a.n;
            out.edges = topo_random_geometric(a.n, p.get_double("radius", 0.35), a.rng,
                                              &out.positions);
            return out;
          }});
  r.add(E{"empty", "n isolated nodes (edges can be added dynamically)", {},
          [](const ParamMap&, const TopologyArgs& a) { return plain(a.n, {}); }});
  r.add(E{"explicit", "edge list supplied programmatically (ScenarioSpec::explicit_edges)",
          {},
          [](const ParamMap&, const TopologyArgs& a) {
            require(a.explicit_edges != nullptr,
                    "topology 'explicit': no edge list supplied");
            return plain(a.n, *a.explicit_edges);
          }});
}

}  // namespace

Registry<TopologyFactory>& topology_registry() {
  static Registry<TopologyFactory>* registry = [] {
    auto* r = new Registry<TopologyFactory>("topology");
    register_builtin_topologies(*r);
    return r;
  }();
  return *registry;
}

}  // namespace gcs

// Static topology generators. They return edge lists; callers decide params
// and whether edges exist from t=0 (create_edge_instant) or appear later.
#pragma once

#include <functional>
#include <vector>

#include "util/common.h"
#include "util/registry.h"
#include "util/rng.h"

namespace gcs {

/// v0 - v1 - ... - v_{n-1}.
std::vector<EdgeKey> topo_line(int n);

/// Line plus the closing edge {0, n-1}.
std::vector<EdgeKey> topo_ring(int n);

/// rows x cols grid, 4-neighborhood.
std::vector<EdgeKey> topo_grid(int rows, int cols);

/// Grid with wrap-around links (torus).
std::vector<EdgeKey> topo_torus(int rows, int cols);

/// Node 0 connected to all others.
std::vector<EdgeKey> topo_star(int n);

/// All pairs.
std::vector<EdgeKey> topo_complete(int n);

/// d-dimensional hypercube on 2^dim nodes.
std::vector<EdgeKey> topo_hypercube(int dim);

/// Two k-cliques joined by a path of `path_len` extra nodes — the classic
/// stress topology for gradient properties (dense ends, thin middle).
/// Total nodes: 2k + path_len.
std::vector<EdgeKey> topo_barbell(int k, int path_len);

/// `k` cliques of `s` nodes each, consecutive cliques joined by `bridges`
/// parallel edges (lowest-id nodes of each side, paired in order; bridges
/// is clamped to s). Total nodes: k*s. The canonical weakly-coupled-islands
/// topology: intra-clique traffic dwarfs the k-1 narrow cuts.
std::vector<EdgeKey> topo_clusters(int k, int s, int bridges);

/// Uniform random spanning tree (random attachment order).
std::vector<EdgeKey> topo_random_tree(int n, Rng& rng);

/// Erdos-Renyi G(n,p) conditioned on connectivity: retries up to
/// `max_attempts` then falls back to adding a random spanning tree.
std::vector<EdgeKey> topo_gnp_connected(int n, double p, Rng& rng,
                                        int max_attempts = 64);

/// 2-D positions in the unit square.
struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

/// Random geometric graph: nodes uniform in the unit square, edge iff
/// distance <= radius. Radius is grown (by 10% steps) until connected.
/// Positions are returned through `positions`.
std::vector<EdgeKey> topo_random_geometric(int n, double radius, Rng& rng,
                                           std::vector<Point2>* positions);

/// Edges within `radius` for externally supplied positions.
std::vector<EdgeKey> edges_within_radius(const std::vector<Point2>& positions,
                                         double radius);

/// Hop diameter of an undirected edge list (-1 if disconnected); the
/// iFUB hop_diameter of paths.h on its unit-weight adjacency.
int hop_diameter(int n, const std::vector<EdgeKey>& edges);

// --------------------------------------------------------------------------
// Topology registry: every generator above self-registers under a name so
// scenarios can be described as strings ("grid:rows=4,cols=6").

/// Build context handed to topology factories.
struct TopologyArgs {
  int n = 0;          ///< requested node count (generators may override)
  Rng& rng;           ///< deterministic source for randomized generators
  const std::vector<EdgeKey>* explicit_edges = nullptr;  ///< for kind "explicit"
};

/// What a topology factory produces. `n` is authoritative: generators whose
/// size is set by their own parameters (grid, hypercube, ...) report it here.
struct TopologyResult {
  int n = 0;
  std::vector<EdgeKey> edges;
  std::vector<Point2> positions;  ///< only for geometric generators
};

using TopologyFactory = std::function<TopologyResult(const ParamMap&, const TopologyArgs&)>;

/// The process-wide topology registry (builtins registered on first use).
Registry<TopologyFactory>& topology_registry();

}  // namespace gcs

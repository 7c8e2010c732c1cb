// Graph generators: the workload zoo for the routing experiments.
//
// Deterministic families (paths, cycles, grids, tori, hypercubes, cliques,
// lollipops), random families (G(n,p), random d-regular, random trees), and
// the named small cubic graphs used by the universality certification
// (Petersen, K4, K_{3,3}, prisms, Möbius–Kantor).
//
// All randomized generators take an explicit seed and are deterministic for
// a given seed.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace uesr::graph {

// ---- deterministic families -------------------------------------------

Graph path(NodeId n);
Graph cycle(NodeId n);
Graph complete(NodeId n);
Graph complete_bipartite(NodeId a, NodeId b);
Graph star(NodeId leaves);

/// rows x cols grid, 4-neighbour.
Graph grid(NodeId rows, NodeId cols);

/// rows x cols torus (wrap-around grid). rows, cols >= 3 for simpleness.
Graph torus(NodeId rows, NodeId cols);

/// d-dimensional hypercube (2^d vertices, d-regular).
Graph hypercube(unsigned dim);

/// Complete binary tree with n nodes (heap indexing).
Graph binary_tree(NodeId n);

/// Lollipop: clique of k vertices with a path of len vertices attached.
/// The classic worst case for random-walk hitting times (~n^3).
Graph lollipop(NodeId clique_size, NodeId path_len);

/// Barbell: two k-cliques joined by a path of len vertices.
Graph barbell(NodeId clique_size, NodeId path_len);

/// `copies` disjoint copies of `cluster`, vertex c*|V| + v in copy c mapping
/// to v.  The million-scale traffic topology: a sea of small clusters keeps
/// per-session UES walks short while the node count (and session count)
/// scales without bound.  Ports are copied verbatim, so every copy is
/// port-isomorphic to the original.
Graph disjoint_copies(const Graph& cluster, NodeId copies);

/// a and b side by side, vertex v of a keeping its name and vertex v of b
/// becoming |V(a)| + v; ports are copied verbatim.  With two connected
/// halves, every cross-half pair is ground-truth unreachable, so failure
/// certificates join every tally of the lossy, chaos and traffic suites.
Graph disjoint_union(const Graph& a, const Graph& b);

// ---- named cubic graphs ------------------------------------------------

Graph petersen();          ///< 10 vertices, girth 5, 3-regular.
Graph k4();                ///< complete graph on 4 vertices (cubic).
Graph k33();               ///< complete bipartite 3,3 (cubic).
Graph prism(NodeId n);     ///< circular ladder CL_n, 2n vertices, cubic; n>=3.
Graph moebius_kantor();    ///< generalized Petersen GP(8,3), 16 vertices.
Graph cube_q3();           ///< 3-cube (8 vertices, cubic).

// ---- random families ----------------------------------------------------

/// Erdos–Renyi G(n, p); simple graph.
Graph gnp(NodeId n, double p, std::uint64_t seed);

/// Uniform random labelled tree (Prüfer sequence), n >= 1.
Graph random_tree(NodeId n, std::uint64_t seed);

/// Random d-regular simple graph via the configuration (pairing) model,
/// resampling until simple.  Requires n*d even, d < n.
Graph random_regular(NodeId n, Port d, std::uint64_t seed);

/// Random connected d-regular simple graph (resamples until connected;
/// for d >= 3 almost every d-regular graph is connected, so this is cheap).
Graph random_connected_regular(NodeId n, Port d, std::uint64_t seed);

/// Random d-regular simple graph via double-edge switches from a circulant
/// start.  The configuration model's rejection probability is
/// ~exp(-(d^2-1)/4), hopeless for d >= 6; switching stays O(switches) for
/// any degree and mixes to near-uniform.  Requires n*d even, d < n.
Graph random_regular_switch(NodeId n, Port d, std::uint64_t seed,
                            std::size_t switches = 0);

/// Connected variant of random_regular_switch (resamples until connected).
Graph random_connected_regular_switch(NodeId n, Port d, std::uint64_t seed);

/// Random connected cubic (3-regular) multigraph via pairing, allowing
/// loops and parallel edges.  Used to stress exploration sequences on the
/// full multigraph model.
Graph random_cubic_multigraph(NodeId n, std::uint64_t seed);

/// G(n,p) conditioned on connectivity (resamples; p must be comfortably
/// above the connectivity threshold for this to terminate quickly).
Graph connected_gnp(NodeId n, double p, std::uint64_t seed);

}  // namespace uesr::graph

#include "core/optimality.hpp"

#include <algorithm>

namespace latticesched {

RoleConflictGraph build_role_conflict_graph(const Tiling& tiling) {
  RoleConflictGraph out;
  // Enumerate roles and remember each role's vertex id.
  std::vector<std::vector<std::uint32_t>> role_id(tiling.prototile_count());
  for (std::uint32_t k = 0; k < tiling.prototile_count(); ++k) {
    role_id[k].resize(tiling.prototile(k).size());
    for (std::uint32_t i = 0; i < tiling.prototile(k).size(); ++i) {
      role_id[k][i] = static_cast<std::uint32_t>(out.roles.size());
      out.roles.push_back(Role{k, i});
    }
  }
  out.graph = Graph(out.roles.size());

  // Window wide enough that every interference offset between two
  // placements appears: tile reach covers |n_i| + |N_k| extents, the
  // period HNF diagonal covers the canonical placement offsets.
  std::int64_t reach = 0;
  for (const Prototile& t : tiling.prototiles()) {
    const Box bb = t.bounding_box();
    for (std::size_t i = 0; i < t.dim(); ++i) {
      reach = std::max(reach,
                       static_cast<std::int64_t>(std::llabs(bb.lo()[i])));
      reach = std::max(reach,
                       static_cast<std::int64_t>(std::llabs(bb.hi()[i])));
    }
  }
  std::int64_t period_extent = 0;
  for (std::size_t i = 0; i < tiling.dim(); ++i) {
    period_extent =
        std::max(period_extent, tiling.period().basis().at(i, i));
  }
  const Box window = Box::centered(tiling.dim(), 4 * reach + period_extent);

  // Anchor one placement at each canonical class; the partner ranges over
  // the window.  The conflict relation is invariant under translating
  // both placements by a period vector, so this enumerates all placement
  // pairs up to symmetry.
  const auto partners = tiling.placements_in(window);
  for (const auto& [s, k] : tiling.placements()) {
    const Prototile& nk = tiling.prototile(k);
    // Coverage index: lattice point -> roles of tile (s, k) covering it.
    for (const auto& [t, l] : partners) {
      if (s == t && k == l) continue;  // same placement: same tile
      const Prototile& nl = tiling.prototile(l);
      // Roles (k, i) and (l, j) conflict iff
      //   (s + n_i + N_k) ∩ (t + n_j + N_l) ≠ ∅.
      for (std::uint32_t i = 0; i < nk.size(); ++i) {
        const Point base_i = s + nk.element(i);
        PointVec cov_i = nk.translated(base_i);
        PointSet cov_set(cov_i.begin(), cov_i.end());
        for (std::uint32_t j = 0; j < nl.size(); ++j) {
          if (out.graph.has_edge(role_id[k][i], role_id[l][j])) continue;
          const Point base_j = t + nl.element(j);
          bool intersect = false;
          for (const Point& q : nl.points()) {
            if (cov_set.count(base_j + q) != 0) {
              intersect = true;
              break;
            }
          }
          if (intersect) {
            out.graph.add_edge(role_id[k][i], role_id[l][j]);
          }
        }
      }
    }
    // Same-tile roles always conflict pairwise: for i != j the point
    // s + n_i + n_j lies in both neighborhoods.
    for (std::uint32_t i = 0; i < nk.size(); ++i) {
      for (std::uint32_t j = i + 1; j < nk.size(); ++j) {
        out.graph.add_edge(role_id[k][i], role_id[k][j]);
      }
    }
  }
  return out;
}

TilingOptimum optimal_slots_for_tiling(const Tiling& tiling,
                                       const ExactColoringConfig& config) {
  TilingOptimum out;
  const RoleConflictGraph rcg = build_role_conflict_graph(tiling);
  const ExactColoringResult ec = exact_chromatic(rcg.graph, config);
  out.optimal_slots = ec.colors;
  out.proven = ec.proven_optimal;
  out.role_slots = ec.coloring;
  // Theorem 2's algorithm uses the union of the prototiles.
  PointVec all;
  for (const Prototile& t : tiling.prototiles()) {
    for (const Point& p : t.points()) all.push_back(p);
  }
  out.theorem2_slots =
      static_cast<std::uint32_t>(sorted_unique(std::move(all)).size());
  return out;
}

DeploymentOptimum optimal_slots_for_deployment(
    const Deployment& d, const ExactColoringConfig& config) {
  DeploymentOptimum out;
  const Graph g = build_conflict_graph(d);
  const ExactColoringResult ec =
      exact_chromatic(g, config, d.max_coverage_multiplicity());
  out.optimal_slots = ec.colors;
  out.proven = ec.proven_optimal;
  out.clique_lower_bound = ec.clique_lower_bound;
  return out;
}

}  // namespace latticesched

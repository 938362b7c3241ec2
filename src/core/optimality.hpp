// Optimality analysis of tiling schedules (Theorem 1/2 bounds, Section 4).
//
// Two notions are machine-checked here:
//
//  * Deployment optimum — the chromatic number of the conflict graph of a
//    finite deployment: the fewest slots ANY collision-free periodic
//    schedule can use on it.  For windows containing a full tile this is
//    at least max_k |N_k| (the tile's sensors conflict pairwise), and
//    Theorems 1/2 say the tiling schedule meets |∪N_k| — equal for
//    respectable tilings.
//
//  * Tiling-constrained optimum — Section 4's ground rules: every
//    translate of a prototile uses the same internal schedule, schedules
//    of different prototiles chosen independently.  Then a schedule is a
//    proper coloring of the *role conflict graph* on roles
//    (prototile k, element i), with an edge whenever SOME pair of
//    placements in the tiling makes the two roles interfere.  Its
//    chromatic number is the optimum the paper reports for Figure 5
//    (m = 6 for the mixed S/Z tiling, m = 4 for the symmetric one).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/interference.hpp"
#include "tiling/tiling.hpp"

namespace latticesched {

/// A role: element `element_index` of prototile `prototile`.
struct Role {
  std::uint32_t prototile = 0;
  std::uint32_t element_index = 0;
};

struct RoleConflictGraph {
  Graph graph;              ///< vertices follow `roles` order
  std::vector<Role> roles;  ///< all (prototile, element) pairs
};

/// Builds the role conflict graph of a periodic tiling.  Placement pairs
/// are enumerated up to period translation (one tile anchored at its
/// canonical classes, the other ranging over a window wide enough to
/// cover all possible interference offsets).
RoleConflictGraph build_role_conflict_graph(const Tiling& tiling);

struct TilingOptimum {
  std::uint32_t optimal_slots = 0;   ///< χ(role conflict graph)
  bool proven = false;               ///< exact search completed
  std::uint32_t theorem2_slots = 0;  ///< |∪N_k| used by the paper's algorithm
  Coloring role_slots;               ///< an optimal role → slot assignment
};

/// Exact tiling-constrained optimum (Section 4 ground rules).
TilingOptimum optimal_slots_for_tiling(
    const Tiling& tiling, const ExactColoringConfig& config = {});

struct DeploymentOptimum {
  std::uint32_t optimal_slots = 0;  ///< χ(conflict graph) (or best found)
  bool proven = false;
  /// max(greedy clique of the conflict graph, max_k |N_k| as
  /// Deployment::max_coverage_multiplicity()); the search stops there.
  std::uint32_t clique_lower_bound = 0;
};

/// Exact (or best-effort) optimum over ALL collision-free periodic
/// schedules of a finite deployment.
DeploymentOptimum optimal_slots_for_deployment(
    const Deployment& d, const ExactColoringConfig& config = {});

}  // namespace latticesched

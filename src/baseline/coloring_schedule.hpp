// Graph-coloring schedulers (the related-work baselines).
//
// Broadcast scheduling = coloring the conflict graph.  These wrappers run
// the heuristics of graph/coloring.hpp and graph/sa_coloring.hpp on a
// deployment's conflict graph and package the result as a slot table, so
// they can be compared head-to-head with the constructive tiling schedule
// (which achieves the optimum without ever materializing the graph).
#pragma once

#include "core/schedule.hpp"
#include "graph/interference.hpp"
#include "graph/sa_coloring.hpp"

namespace latticesched {

enum class ColoringHeuristic {
  kGreedy,        ///< first-fit in index order
  kWelshPowell,   ///< first-fit by decreasing degree
  kDsatur,        ///< Brélaz saturation heuristic
  kAnnealing,     ///< simulated annealing (Wang–Ansari-style stand-in)
};

const char* to_string(ColoringHeuristic h);

/// Colors the deployment's conflict graph with the chosen heuristic;
/// annealing stops at d.max_coverage_multiplicity().
SensorSlots coloring_slots(const Deployment& d, ColoringHeuristic h,
                           const SaConfig& sa_config = {});

/// Convenience: runs the heuristic on a prebuilt conflict graph (lets
/// benchmarks reuse one graph across heuristics).  `lower_bound` is
/// handed to sa_min_coloring; it must lower-bound the chromatic number.
SensorSlots coloring_slots_on_graph(const Graph& g, ColoringHeuristic h,
                                    const SaConfig& sa_config = {},
                                    std::uint32_t lower_bound = 0);

}  // namespace latticesched

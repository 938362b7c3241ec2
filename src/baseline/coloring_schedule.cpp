#include "baseline/coloring_schedule.hpp"

namespace latticesched {

const char* to_string(ColoringHeuristic h) {
  switch (h) {
    case ColoringHeuristic::kGreedy: return "greedy";
    case ColoringHeuristic::kWelshPowell: return "welsh-powell";
    case ColoringHeuristic::kDsatur: return "dsatur";
    case ColoringHeuristic::kAnnealing: return "annealing";
  }
  return "?";
}

SensorSlots coloring_slots_on_graph(const Graph& g, ColoringHeuristic h,
                                    const SaConfig& sa_config,
                                    std::uint32_t lower_bound) {
  Coloring coloring;
  switch (h) {
    case ColoringHeuristic::kGreedy:
      coloring = greedy_coloring(g);
      break;
    case ColoringHeuristic::kWelshPowell:
      coloring = welsh_powell_coloring(g);
      break;
    case ColoringHeuristic::kDsatur:
      coloring = dsatur_coloring(g);
      break;
    case ColoringHeuristic::kAnnealing:
      coloring = sa_min_coloring(g, sa_config, lower_bound).coloring;
      break;
  }
  SensorSlots out;
  out.slot = std::move(coloring);
  out.period = color_count(out.slot);
  out.source = std::string("coloring-") + to_string(h);
  return out;
}

SensorSlots coloring_slots(const Deployment& d, ColoringHeuristic h,
                           const SaConfig& sa_config) {
  return coloring_slots_on_graph(build_conflict_graph(d), h, sa_config,
                                 d.max_coverage_multiplicity());
}

}  // namespace latticesched

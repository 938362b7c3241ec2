#include "graph/sa_coloring.hpp"

#include <algorithm>
#include <cmath>

namespace latticesched {

namespace {

// Number of monochromatic edges incident to u under `colors`.
std::size_t vertex_conflicts(const Graph& g, const Coloring& colors,
                             std::uint32_t u) {
  std::size_t c = 0;
  for (std::uint32_t v : g.neighbors(u)) {
    if (colors[v] == colors[u]) ++c;
  }
  return c;
}

std::size_t total_conflicts(const Graph& g, const Coloring& colors) {
  std::size_t c = 0;
  for (std::uint32_t u = 0; u < g.size(); ++u) {
    c += vertex_conflicts(g, colors, u);
  }
  return c / 2;
}

}  // namespace

std::optional<Coloring> sa_find_coloring(const Graph& g, std::uint32_t k,
                                         const SaConfig& config) {
  if (k == 0) {
    if (g.size() == 0) return Coloring{};
    return std::nullopt;
  }
  Rng rng(config.seed ^ (static_cast<std::uint64_t>(k) << 32));
  for (std::uint64_t attempt = 0; attempt < config.restarts; ++attempt) {
    Coloring colors(g.size());
    for (auto& c : colors) {
      c = static_cast<std::uint32_t>(rng.next_below(k));
    }
    std::size_t energy = total_conflicts(g, colors);
    double temperature = config.initial_temperature;
    for (std::uint64_t it = 0; it < config.max_iters && energy > 0; ++it) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(g.size()));
      if (vertex_conflicts(g, colors, u) == 0) continue;
      const auto fresh = static_cast<std::uint32_t>(rng.next_below(k));
      if (fresh == colors[u]) continue;
      const std::size_t before = vertex_conflicts(g, colors, u);
      const std::uint32_t old = colors[u];
      colors[u] = fresh;
      const std::size_t after = vertex_conflicts(g, colors, u);
      const auto delta =
          static_cast<double>(after) - static_cast<double>(before);
      if (delta <= 0 ||
          rng.next_double() < std::exp(-delta / std::max(temperature, 1e-9))) {
        energy = energy + after - before;
      } else {
        colors[u] = old;  // reject
      }
      temperature *= config.cooling;
    }
    if (energy == 0) return colors;
  }
  return std::nullopt;
}

SaScheduleResult sa_min_coloring(const Graph& g, const SaConfig& config,
                                 std::uint32_t lower_bound) {
  SaScheduleResult out;
  out.coloring = dsatur_coloring(g);
  out.colors = color_count(out.coloring);
  // Each k attempt seeds its own Rng, so skipping the attempts below a
  // valid lower bound (all doomed) leaves every other attempt unchanged.
  while (out.colors > std::max<std::uint32_t>(lower_bound, 1)) {
    const std::uint32_t target = out.colors - 1;
    auto attempt = sa_find_coloring(g, target, config);
    out.total_iterations += config.max_iters * config.restarts;
    if (!attempt.has_value()) break;
    out.coloring = std::move(*attempt);
    out.colors = color_count(out.coloring);
  }
  return out;
}

}  // namespace latticesched

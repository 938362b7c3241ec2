#include "core/region_shard.hpp"

#include <algorithm>

namespace latticesched {

namespace {

/// Serial first-fit in sensor-index order over streamed conflict rows:
/// c(u) = mex{c(v) : v ~ u, v < u}, which is by definition
/// greedy_coloring(build_conflict_graph(d)).  Only the partners below u
/// are read, and no row outlives its probe.
Coloring streaming_greedy(const Deployment& d) {
  const std::size_t n = d.size();
  const ConflictProber prober(d);
  Coloring colors(n, kUncolored);
  // taken[c] == u + 1 iff color c is held by a lower partner of u.
  std::vector<std::uint32_t> taken;
  for (std::uint32_t u = 0; u < n; ++u) {
    prober.for_each(u, [&](std::uint32_t v) {
      if (v >= u) return;
      if (colors[v] >= taken.size()) taken.resize(colors[v] + 1, 0);
      taken[colors[v]] = u + 1;
    });
    std::uint32_t c = 0;
    while (c < taken.size() && taken[c] == u + 1) ++c;
    colors[u] = c;
  }
  return colors;
}

}  // namespace

RegionGrid partition_regions(const Deployment& d, std::size_t regions,
                             std::int64_t halo) {
  RegionGrid grid;
  grid.halo = std::max(halo, interference_reach(d));
  const std::size_t n = d.size();
  if (n == 0) return grid;

  const std::size_t dim = d.position(0).dim();
  Point lo = d.position(0);
  Point hi = d.position(0);
  for (const Point& p : d.positions()) {
    for (std::size_t a = 0; a < dim; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
  const Box hull(lo, hi);

  // Axis split counts: repeatedly halve the axis with the widest current
  // slice until the grid reaches the requested region count (or every
  // slice is a single lattice line).
  const std::size_t target = std::max<std::size_t>(1, std::min(regions, n));
  std::vector<std::size_t> parts(dim, 1);
  std::size_t prod = 1;
  while (prod < target) {
    std::size_t best = dim;
    double best_width = 1.0;
    for (std::size_t a = 0; a < dim; ++a) {
      const double width = static_cast<double>(hull.extent(a)) /
                           static_cast<double>(parts[a]);
      if (width > best_width) {
        best_width = width;
        best = a;
      }
    }
    if (best == dim) break;  // all slices are single points already
    prod = prod / parts[best] * (parts[best] + 1);
    ++parts[best];
  }

  // Chunk widths ceil(extent / parts): (extent-1)/width <= parts-1, so
  // every coordinate lands in a valid chunk without wide arithmetic.
  // With the width fixed, only ceil(extent / width) chunks are non-empty
  // — shrink parts to that count so no box degenerates past the hull
  // (e.g. extent 13 split 8 ways rounds to width 2 = 7 real chunks).
  std::vector<std::int64_t> width(dim, 1);
  std::size_t total = 1;
  for (std::size_t a = 0; a < dim; ++a) {
    width[a] = (hull.extent(a) + static_cast<std::int64_t>(parts[a]) - 1) /
               static_cast<std::int64_t>(parts[a]);
    parts[a] = static_cast<std::size_t>((hull.extent(a) + width[a] - 1) /
                                        width[a]);
    total *= parts[a];
  }

  grid.boxes.reserve(total);
  for (std::size_t r = 0; r < total; ++r) {
    Point box_lo(dim);
    Point box_hi(dim);
    std::size_t rest = r;
    for (std::size_t a = 0; a < dim; ++a) {
      const std::int64_t chunk = static_cast<std::int64_t>(rest % parts[a]);
      rest /= parts[a];
      box_lo[a] = lo[a] + chunk * width[a];
      box_hi[a] = std::min(hi[a], box_lo[a] + width[a] - 1);
    }
    grid.boxes.emplace_back(box_lo, box_hi);
  }

  grid.region_of.resize(n);
  grid.members.resize(total);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = d.position(i);
    std::size_t r = 0;
    std::size_t stride = 1;
    for (std::size_t a = 0; a < dim; ++a) {
      r += stride * static_cast<std::size_t>((p[a] - lo[a]) / width[a]);
      stride *= parts[a];
    }
    grid.region_of[i] = static_cast<std::uint32_t>(r);
    grid.members[r].push_back(static_cast<std::uint32_t>(i));
  }
  return grid;
}

Coloring plan_regions(const Deployment& d, std::size_t regions,
                      std::int64_t halo, const RegionWarmStart* warm,
                      RegionShardStats* stats) {
  const std::size_t n = d.size();
  if (n == 0) return Coloring{};

  const RegionGrid grid = partition_regions(d, regions, halo);
  const std::size_t total = grid.boxes.size();

  // Dirty-region routing: with warm state, a shard needs re-coloring iff
  // its halo-expanded box contains a position where the conflict
  // structure changed — everything further away kept both its row and
  // (pending the repair) its fixpoint color.
  std::vector<std::uint32_t> planned;
  bool warm_ok = warm != nullptr && warm->colors.size() == n;
  if (warm_ok) {
    const std::int64_t route_halo = std::max(grid.halo, warm->dirty_reach);
    for (std::size_t r = 0; r < total; ++r) {
      const Box reach = grid.boxes[r].expanded(route_halo);
      for (const Point& p : warm->dirty_positions) {
        if (reach.contains(p)) {
          planned.push_back(static_cast<std::uint32_t>(r));
          break;
        }
      }
    }
    // Safety net: a sensor without a carried color must sit in a planned
    // shard; inconsistent warm state degrades to a cold plan.
    std::vector<char> is_planned(total, 0);
    for (std::uint32_t r : planned) is_planned[r] = 1;
    for (std::size_t i = 0; i < n && warm_ok; ++i) {
      if (warm->colors[i] == kUncolored && !is_planned[grid.region_of[i]]) {
        warm_ok = false;
      }
    }
  }

  // Cold plans, and warm plans that dirtied every shard, run the one
  // streaming first-fit pass: the same table as a full repair, without
  // the priority queue or the memoized rows.
  const bool cold = !warm_ok || planned.size() == total;
  if (stats != nullptr) {
    stats->regions += total;
    stats->regions_planned += cold ? total : planned.size();
  }
  if (cold) return streaming_greedy(d);

  // Warm repair: dirty members enter uncolored and clean sensors keep
  // the carried fixpoint — exactly the values their rows last observed,
  // so the repair's change detection propagates from every dirty member.
  // Rows are streamed lazily and memoized; only dirty members and
  // vertices reached by color propagation are ever materialized.
  Coloring colors = warm->colors;
  for (std::uint32_t r : planned) {
    for (std::uint32_t u : grid.members[r]) colors[u] = kUncolored;
  }
  const ConflictProber prober(d);
  std::vector<std::vector<std::uint32_t>> rows(n);
  std::vector<char> have(n, 0);
  const NeighborProvider provider =
      [&](std::uint32_t u) -> const std::vector<std::uint32_t>& {
    if (!have[u]) {
      prober.row(u, rows[u]);
      have[u] = 1;
    }
    return rows[u];
  };
  const Coloring before = colors;
  colors = incremental_greedy_coloring(n, provider, std::move(colors));

  if (stats != nullptr) {
    // A recolor moves a clean sensor off the color it carried; dirty
    // members entered uncolored, so coloring them is not one.
    for (std::size_t i = 0; i < n; ++i) {
      if (before[i] != kUncolored && colors[i] != before[i]) {
        ++stats->stitch_recolored;
      }
    }
  }
  return colors;
}

}  // namespace latticesched

#include "graph/interference.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace latticesched {

namespace {

/// Box over the hull of every sensor's coverage — the hull of positions
/// dilated by the hull of every prototile's bounding box (conservative:
/// it may include never-covered cells) — or nullopt when the deployment
/// is too scattered to densify.  A dense table costs O(hull volume), so
/// the hull must be comparable to the actual coverage as well as under
/// kDenseGridCellCap.  Throws on positions of mixed dimensions.
std::optional<PointIndexer> dense_coverage_hull(
    const PointVec& positions, const std::vector<std::uint32_t>& types,
    const std::vector<Prototile>& prototiles) {
  const std::size_t d = positions.front().dim();
  Point lo = positions.front(), hi = positions.front();
  for (const Point& p : positions) {
    if (p.dim() != d) {
      throw std::invalid_argument("Deployment: mixed dimensions");
    }
    for (std::size_t a = 0; a < d; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
  std::uint64_t total_coverage = 0;
  for (std::uint32_t t : types) total_coverage += prototiles[t].size();
  const std::uint64_t max_cells = std::min<std::uint64_t>(
      kDenseGridCellCap,
      std::max<std::uint64_t>(std::uint64_t{1} << 16, 32 * total_coverage));
  Point off_lo = Point::zero(d), off_hi = Point::zero(d);
  for (const Prototile& t : prototiles) {
    const Box bb = t.bounding_box();
    for (std::size_t a = 0; a < d; ++a) {
      off_lo[a] = std::min(off_lo[a], bb.lo()[a]);
      off_hi[a] = std::max(off_hi[a], bb.hi()[a]);
    }
  }
  std::uint64_t volume = 1;
  for (std::size_t a = 0; a < d; ++a) {
    lo[a] += off_lo[a];
    hi[a] += off_hi[a];
    const std::uint64_t extent = static_cast<std::uint64_t>(hi[a] - lo[a] + 1);
    if (extent > max_cells || volume > max_cells / extent) {
      return std::nullopt;
    }
    volume *= extent;
  }
  return PointIndexer::for_box(Box(lo, hi));
}

/// Cell-id shifts of every prototile type on the dense coverage grid.
/// Grid ids are linear in the coordinates and the grid holds every
/// sensor's coverage, so element e of type t moves a sensor's cell id by
/// shifts[t][e] wherever it sits; shifts are read off the first sensor
/// of each type (empty for types no sensor uses).
std::vector<std::vector<std::int64_t>> coverage_shifts(
    const Deployment& d, const PointIndexer& grid) {
  std::vector<std::vector<std::int64_t>> shifts(d.prototiles().size());
  std::size_t missing = shifts.size();
  for (std::uint32_t i = 0; i < d.size() && missing > 0; ++i) {
    std::vector<std::int64_t>& shift = shifts[d.type_of(i)];
    if (!shift.empty()) continue;
    const Point& pos = d.position(i);
    const std::int64_t base = grid.id_of(pos);
    for (const Point& n : d.neighborhood_of(i).points()) {
      shift.push_back(std::int64_t{grid.id_of(pos + n)} - base);
    }
    --missing;
  }
  return shifts;
}

std::uint32_t coverage_multiplicity(const Deployment& d) {
  // A point p is covered only by sensors at p - a for offsets a of some
  // prototile, and positions are unique, so no count exceeds the size of
  // the prototiles' union.  The scan stops once a point reaches it,
  // which a full window does within its first few rows.
  PointVec offsets;
  for (const Prototile& n : d.prototiles()) {
    offsets.insert(offsets.end(), n.points().begin(), n.points().end());
  }
  const std::size_t cap = sorted_unique(std::move(offsets)).size();
  std::uint32_t best = 0;
  const auto& grid = d.coverage_grid();
  if (grid.has_value()) {
    const auto shifts = coverage_shifts(d, *grid);
    std::vector<std::uint32_t> count(grid->size(), 0);
    for (std::uint32_t i = 0; i < d.size() && best < cap; ++i) {
      const std::int64_t base = grid->id_of(d.position(i));
      for (const std::int64_t s : shifts[d.type_of(i)]) {
        best = std::max(best, ++count[static_cast<std::size_t>(base + s)]);
      }
    }
    return best;
  }
  PointMap<std::uint32_t> count;
  for (std::size_t i = 0; i < d.size() && best < cap; ++i) {
    for (const Point& p : d.coverage_of(i)) {
      best = std::max(best, ++count[p]);
    }
  }
  return best;
}

}  // namespace

Deployment::Deployment(PointVec positions, std::vector<std::uint32_t> types,
                       std::vector<Prototile> prototiles)
    : positions_(std::move(positions)), types_(std::move(types)),
      prototiles_(std::move(prototiles)) {
  if (positions_.size() != types_.size()) {
    throw std::invalid_argument("Deployment: positions/types mismatch");
  }
  if (prototiles_.empty()) {
    throw std::invalid_argument("Deployment: no prototiles");
  }
  for (std::uint32_t t : types_) {
    if (t >= prototiles_.size()) {
      throw std::invalid_argument("Deployment: bad prototile index");
    }
  }
  if (positions_.empty()) return;
  grid_ = dense_coverage_hull(positions_, types_, prototiles_);
  if (grid_.has_value()) {
    sensor_of_cell_.assign(grid_->size(), PointIndexer::kInvalid);
  }
  for (std::uint32_t i = 0; i < positions_.size(); ++i) {
    const bool fresh =
        grid_.has_value()
            ? std::exchange(sensor_of_cell_[grid_->id_of(positions_[i])],
                            i) == PointIndexer::kInvalid
            : index_of_position_.emplace(positions_[i], i).second;
    if (!fresh) {
      throw std::invalid_argument("Deployment: duplicate sensor position");
    }
  }
  multiplicity_ = coverage_multiplicity(*this);
}

Deployment Deployment::uniform(PointVec positions, Prototile n) {
  std::vector<std::uint32_t> types(positions.size(), 0);
  std::vector<Prototile> protos;
  protos.push_back(std::move(n));
  return Deployment(std::move(positions), std::move(types),
                    std::move(protos));
}

Deployment Deployment::grid(const Box& box, Prototile n) {
  return uniform(box.points(), std::move(n));
}

Deployment Deployment::assemble(PointVec positions,
                                std::vector<std::uint32_t> types,
                                std::vector<Prototile> prototiles) {
  return Deployment(std::move(positions), std::move(types),
                    std::move(prototiles));
}

Deployment Deployment::from_tiling(const Tiling& t, const Box& box) {
  PointVec positions = box.points();
  std::vector<std::uint32_t> types;
  types.reserve(positions.size());
  for (const Point& p : positions) {
    types.push_back(t.covering(p).prototile);
  }
  return Deployment(std::move(positions), std::move(types), t.prototiles());
}

PointVec Deployment::coverage_of(std::size_t i) const {
  return neighborhood_of(i).translated(positions_.at(i));
}

std::optional<std::size_t> Deployment::sensor_at(const Point& p) const {
  if (grid_.has_value()) {
    const std::uint32_t cell = grid_->id_of(p);
    if (cell == PointIndexer::kInvalid ||
        sensor_of_cell_[cell] == PointIndexer::kInvalid) {
      return std::nullopt;
    }
    return static_cast<std::size_t>(sensor_of_cell_[cell]);
  }
  const auto it = index_of_position_.find(p);
  if (it == index_of_position_.end()) return std::nullopt;
  return static_cast<std::size_t>(it->second);
}

CsrU32 coverage_ids(const Deployment& d) {
  const auto& grid = d.coverage_grid();
  if (!grid.has_value()) {
    throw std::invalid_argument("coverage_ids: deployment has no dense grid");
  }
  const auto shifts = coverage_shifts(d, *grid);
  CsrU32 cov;
  cov.begin_counting(d.size());
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    cov.offsets[i + 1] =
        static_cast<std::uint32_t>(shifts[d.type_of(i)].size());
  }
  cov.finish_counting();
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    const std::int64_t base = grid->id_of(d.position(i));
    for (const std::int64_t s : shifts[d.type_of(i)]) {
      cov.push(i, static_cast<std::uint32_t>(base + s));
    }
  }
  return cov;
}

CsrU32 build_listeners(const Deployment& d) {
  CsrU32 listeners;
  listeners.begin_counting(d.size());
  for (std::uint32_t u = 0; u < d.size(); ++u) {
    const Point& pos = d.position(u);
    for (const Point& e : d.neighborhood_of(u).points()) {
      const auto r = d.sensor_at(pos + e);
      if (r.has_value() && *r != u) listeners.count(u);
    }
  }
  listeners.finish_counting();
  for (std::uint32_t u = 0; u < d.size(); ++u) {
    const Point& pos = d.position(u);
    for (const Point& e : d.neighborhood_of(u).points()) {
      const auto r = d.sensor_at(pos + e);
      if (r.has_value() && *r != u) {
        listeners.push(u, static_cast<std::uint32_t>(*r));
      }
    }
  }
  return listeners;
}

namespace {

// Seed path, kept for deployments whose coverage hull defeats the grid.
Graph build_conflict_graph_hashed(const Deployment& d) {
  Graph g(d.size());
  PointMap<std::vector<std::uint32_t>> covered_by;
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    for (const Point& p : d.coverage_of(i)) {
      covered_by[p].push_back(i);
    }
  }
  for (const auto& [p, ids] : covered_by) {
    for (std::size_t a = 0; a < ids.size(); ++a) {
      for (std::size_t b = a + 1; b < ids.size(); ++b) {
        g.add_edge(ids[a], ids[b]);
      }
    }
  }
  return g;
}

}  // namespace

Graph build_conflict_graph(const Deployment& d) {
  const auto& grid = d.coverage_grid();
  if (!grid.has_value()) return build_conflict_graph_hashed(d);
  // Invert coverage on the dense grid: CSR row per grid cell listing the
  // sensors that cover it; any two of them conflict.
  const CsrU32 cov = coverage_ids(d);
  CsrU32 covered_by;
  covered_by.begin_counting(grid->size());
  for (std::uint32_t id : cov.values) covered_by.count(id);
  covered_by.finish_counting();
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    for (std::uint32_t id : cov.row(i)) covered_by.push(id, i);
  }
  // Neighbor enumeration dominates; it parallelizes per sensor because
  // sensor u's conflict partners — every sensor sharing a covered cell —
  // depend only on the (const) CSR tables.  The per-u list is sorted and
  // deduplicated locally, so the resulting adjacency is a pure function
  // of the deployment: byte-identical at any thread count (the
  // determinism test pins threads=1 vs threads=N).
  if (parallel_threads() > 1 && !in_parallel_region() && d.size() >= 256) {
    std::vector<std::vector<std::uint32_t>> adj(d.size());
    parallel_for(
        0, d.size(),
        [&](std::size_t u) {
          auto& out = adj[u];
          for (std::uint32_t id : cov.row(u)) {
            for (std::uint32_t v : covered_by.row(id)) {
              if (v != static_cast<std::uint32_t>(u)) out.push_back(v);
            }
          }
          std::sort(out.begin(), out.end());
          out.erase(std::unique(out.begin(), out.end()), out.end());
        },
        16);
    return Graph::from_sorted_adjacency(std::move(adj));
  }
  Graph g(d.size());
  for (std::size_t cell = 0; cell < covered_by.rows(); ++cell) {
    const auto ids = covered_by.row(cell);
    for (std::size_t a = 0; a < ids.size(); ++a) {
      for (std::size_t b = a + 1; b < ids.size(); ++b) {
        g.add_edge(ids[a], ids[b]);
      }
    }
  }
  return g;
}

std::vector<std::vector<std::uint32_t>> build_affects_digraph(
    const Deployment& d) {
  std::vector<std::vector<std::uint32_t>> affects(d.size());
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    const Point& pos = d.position(i);
    for (const Point& n : d.neighborhood_of(i).points()) {
      const auto j = d.sensor_at(pos + n);
      if (j.has_value() && *j != i) {
        affects[i].push_back(static_cast<std::uint32_t>(*j));
      }
    }
    std::sort(affects[i].begin(), affects[i].end());
  }
  return affects;
}

PointVec conflict_candidate_offsets(const Deployment& d,
                                    std::uint32_t type) {
  PointSet seen;
  const Prototile& nu = d.prototiles()[type];
  for (const Prototile& nv : d.prototiles()) {
    for (const Point& a : nu.points()) {
      for (const Point& b : nv.points()) {
        seen.insert(a - b);
      }
    }
  }
  return PointVec(seen.begin(), seen.end());
}

std::int64_t interference_reach(const Deployment& d) {
  std::int64_t reach = 0;
  for (std::uint32_t t = 0; t < d.prototiles().size(); ++t) {
    for (const Point& off : conflict_candidate_offsets(d, t)) {
      reach = std::max(reach, off.norm_inf());
    }
  }
  return reach;
}

const PointVec& ConflictProber::offsets_for(std::uint32_t type) const {
  PointVec& offsets = offsets_by_type_[type];
  if (offsets.empty()) offsets = conflict_candidate_offsets(d_, type);
  return offsets;
}

void ConflictProber::row(std::uint32_t u,
                         std::vector<std::uint32_t>& row) const {
  row.clear();
  // Offsets are distinct and positions unique, so no partner repeats.
  for_each(u, [&](std::uint32_t v) { row.push_back(v); });
  std::sort(row.begin(), row.end());
}

Graph patch_conflict_graph(const Graph& old_graph, const Deployment& new_d,
                           const std::vector<std::uint32_t>& old_to_new,
                           const std::vector<std::uint32_t>& dirty) {
  if (old_to_new.size() != old_graph.size()) {
    throw std::invalid_argument(
        "patch_conflict_graph: old_to_new/old_graph size mismatch");
  }
  const std::size_t n_new = new_d.size();
  std::vector<char> is_dirty(n_new, 0);
  for (std::uint32_t u : dirty) {
    if (u >= n_new) {
      throw std::invalid_argument(
          "patch_conflict_graph: dirty index out of range");
    }
    is_dirty[u] = 1;
  }

  // Clean rows carry over: remap through old_to_new, dropping removed
  // neighbors and dirty neighbors (the dirty rebuild below re-adds any
  // surviving edge to a dirty sensor).  Kept sensors preserve relative
  // order, so remapped rows stay sorted.
  std::vector<std::vector<std::uint32_t>> adj(n_new);
  for (std::uint32_t i = 0; i < old_to_new.size(); ++i) {
    const std::uint32_t j = old_to_new[i];
    if (j == kRemovedSensor) continue;
    if (j >= n_new) {
      throw std::invalid_argument(
          "patch_conflict_graph: old_to_new index out of range");
    }
    if (is_dirty[j]) continue;
    for (std::uint32_t t : old_graph.neighbors(i)) {
      const std::uint32_t nt = old_to_new[t];
      if (nt == kRemovedSensor || is_dirty[nt]) continue;
      adj[j].push_back(nt);
    }
  }

  // Dirty rows rebuild locally.  Dirty-dirty edges are discovered from
  // both endpoints (the predicate is symmetric), so each dirty row is
  // complete on its own; only clean partners need the symmetric insert.
  const ConflictProber prober(new_d);
  for (std::uint32_t u : dirty) {
    std::vector<std::uint32_t>& row = adj[u];
    prober.row(u, row);
    for (std::uint32_t v : row) {
      if (is_dirty[v]) continue;
      std::vector<std::uint32_t>& back = adj[v];
      back.insert(std::lower_bound(back.begin(), back.end(), u), u);
    }
  }
  // from_sorted_adjacency re-validates symmetry and ordering, so a patch
  // bug surfaces as an exception instead of a silently wrong schedule.
  return Graph::from_sorted_adjacency(std::move(adj));
}

bool sensors_conflict(const Deployment& d, std::size_t i, std::size_t j) {
  if (i == j) return false;
  // Coverage lists are translates of sorted prototiles, and translation
  // preserves the canonical order, so a two-pointer merge finds any
  // common point without building a set (or allocating at all).
  const PointVec& a = d.neighborhood_of(i).points();
  const PointVec& b = d.neighborhood_of(j).points();
  const Point& pi = d.position(i);
  const Point& pj = d.position(j);
  std::size_t x = 0, y = 0;
  while (x < a.size() && y < b.size()) {
    const Point pa = a[x] + pi;
    const Point pb = b[y] + pj;
    if (pa == pb) return true;
    if (pa < pb) {
      ++x;
    } else {
      ++y;
    }
  }
  return false;
}

}  // namespace latticesched

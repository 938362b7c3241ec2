// Deployments and interference graphs.
//
// A deployment places finitely many sensors on lattice points and assigns
// each its interference neighborhood (a prototile).  The paper's collision
// predicate — simultaneous senders s, t collide iff (s+N_s) ∩ (t+N_t) ≠ ∅
// — induces the *conflict graph* whose proper colorings are exactly the
// collision-free slot assignments.  The *affects digraph* (v → u iff u is
// affected by v's radio) is the formulation used in the related work; for
// completeness we provide both and the tests check that conflict equals
// "distance ≤ 2 via a common out-neighbor" in the affects digraph.
//
// Engine note: deployment queries back every verification, graph build
// and simulation step.  A deployment decides once, at construction,
// whether its coverage hull is dense enough to index: if so it keeps one
// box-mode PointIndexer over that hull plus a cell -> sensor table, and
// sensor_at, the collision checker and the conflict-graph builder share
// that one id space (always, for the grid deployments the experiments
// use).  Only pathologically scattered deployments fall back to a hash
// map of positions; a deployment never holds both.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "lattice/point_index.hpp"
#include "lattice/region.hpp"
#include "tiling/prototile.hpp"
#include "tiling/tiling.hpp"
#include "util/csr.hpp"

namespace latticesched {

/// Grid-volume ceiling under which a deployment densifies its coverage
/// hull; above it (scattered deployments spanning a huge hull) the hash
/// fallbacks engage.
inline constexpr std::uint64_t kDenseGridCellCap = std::uint64_t{1} << 23;

class Deployment {
 public:
  /// Sensors at `positions`, all sharing neighborhood `n`.
  static Deployment uniform(PointVec positions, Prototile n);

  /// Sensors at every point of `box`, all sharing neighborhood `n`.
  static Deployment grid(const Box& box, Prototile n);

  /// Deployment rule D1 of Section 4: sensors at every point of `box`,
  /// each inheriting the prototile of the tile covering it.
  static Deployment from_tiling(const Tiling& t, const Box& box);

  /// General assembly from explicit per-sensor types — the PlanSession's
  /// delta machinery rebuilds deployments through here (a mutated fleet
  /// is neither uniform nor tiling-derived).  Validates exactly like the
  /// other factories: types index `prototiles`, positions are unique.
  static Deployment assemble(PointVec positions,
                             std::vector<std::uint32_t> types,
                             std::vector<Prototile> prototiles);

  std::size_t size() const { return positions_.size(); }
  const PointVec& positions() const { return positions_; }
  const Point& position(std::size_t i) const { return positions_[i]; }
  std::uint32_t type_of(std::size_t i) const { return types_[i]; }
  const std::vector<Prototile>& prototiles() const { return prototiles_; }
  const Prototile& neighborhood_of(std::size_t i) const {
    return prototiles_[types_[i]];
  }

  /// Points affected when sensor i broadcasts (its position + prototile).
  PointVec coverage_of(std::size_t i) const;

  /// Index of the sensor at position p, if any.  O(d) grid arithmetic
  /// plus one table read on the coverage grid; hash lookup only on the
  /// scattered fallback.
  std::optional<std::size_t> sensor_at(const Point& p) const;

  /// Dense grid over the hull of every sensor's coverage, built once at
  /// construction; nullopt for empty deployments and for hulls too
  /// scattered to densify (see kDenseGridCellCap).  The id space shared
  /// by sensor_at, the collision checker and the conflict-graph builder.
  const std::optional<PointIndexer>& coverage_grid() const { return grid_; }

  /// Largest coverage multiplicity: over all points, the most sensors
  /// whose coverage contains that point (0 for an empty deployment).
  /// Those sensors pairwise conflict, so the count is a clique size and
  /// a lower bound on the slot count of every collision-free schedule.
  /// Computed once at construction, in one pass over the coverage ids on
  /// the coverage grid (a PointMap on scattered hulls).
  std::uint32_t max_coverage_multiplicity() const { return multiplicity_; }

 private:
  Deployment(PointVec positions, std::vector<std::uint32_t> types,
             std::vector<Prototile> prototiles);
  PointVec positions_;
  std::vector<std::uint32_t> types_;
  std::vector<Prototile> prototiles_;
  std::optional<PointIndexer> grid_;
  /// Dense hull only: grid cell -> sensor id (PointIndexer::kInvalid
  /// where no sensor sits).
  std::vector<std::uint32_t> sensor_of_cell_;
  /// Scattered hull only: position -> sensor id.
  PointMap<std::uint32_t> index_of_position_;
  std::uint32_t multiplicity_ = 0;
};

/// Coverage lists of every sensor as ids on d.coverage_grid() in one CSR
/// buffer: row i holds coverage_grid()->id_of(p) for p in coverage_of(i),
/// in canonical element order.  Throws when the deployment's hull is
/// scattered (no dense grid).
CsrU32 coverage_ids(const Deployment& d);

/// The simulators' listener relation as CSR: row u lists the sensors
/// located inside coverage_of(u), excluding u itself (the radio model's
/// receivers of u's broadcast).  One definition shared by SlotSimulator,
/// convergecast and bootstrap.
CsrU32 build_listeners(const Deployment& d);

/// Undirected conflict graph: edge (i, j) iff coverage_of(i) and
/// coverage_of(j) intersect.  Proper colorings = collision-free schedules.
Graph build_conflict_graph(const Deployment& d);

/// Directed affects relation as adjacency lists: affects[i] lists sensors
/// located inside coverage_of(i) (excluding i itself).
std::vector<std::vector<std::uint32_t>> build_affects_digraph(
    const Deployment& d);

/// Whether sensors i and j conflict per the paper's intersection predicate
/// (allocation-free sorted-order merge; used to cross-check the builders).
bool sensors_conflict(const Deployment& d, std::size_t i, std::size_t j);

/// Candidate neighbor offsets of a sensor of type `type`: every a - b
/// with a in N_type and b in any prototile of the deployment.  A sensor
/// v conflicts u iff pos(v) - pos(u) lies in this set (for v's type), so
/// probing sensor_at over it enumerates every conflict partner of u
/// without touching the rest of the deployment.
PointVec conflict_candidate_offsets(const Deployment& d, std::uint32_t type);

/// Chebyshev interference reach of the deployment: the largest l-inf
/// norm over every type's candidate offsets.  Sensors further apart than
/// this can never conflict — the halo width of the region sharder.
std::int64_t interference_reach(const Deployment& d);

/// Streaming conflict rows: localized sensor_at probes over each type's
/// conflict_candidate_offsets enumerate a sensor's conflict partners
/// without touching the rest of the deployment, so cost scales with the
/// rows asked for — million-sensor deployments are planned without ever
/// materializing the all-pairs adjacency of build_conflict_graph.  The
/// one probe loop behind the streaming greedy pass, the warm repair's
/// lazily built rows and patch_conflict_graph's dirty rows.  Offset sets
/// are computed per type on first use, so a prober is single-threaded.
class ConflictProber {
 public:
  explicit ConflictProber(const Deployment& d)
      : d_(d), offsets_by_type_(d.prototiles().size()),
        uniform_tiles_(d.prototiles().size() == 1) {}

  /// Calls f(v) once for every sensor v conflicting u, in probe order.
  template <class F>
  void for_each(std::uint32_t u, F&& f) const {
    const Point& pos = d_.position(u);
    for (const Point& off : offsets_for(d_.type_of(u))) {
      const auto v = d_.sensor_at(pos + off);
      // Single prototile: a hit pos_u + (a - b) = pos_v means the cell
      // pos_u + a = pos_v + b is covered by both neighborhoods, so every
      // hit IS a conflict.  Mixed prototiles confirm pairwise.
      if (v.has_value() && *v != u &&
          (uniform_tiles_ || sensors_conflict(d_, u, *v))) {
        f(static_cast<std::uint32_t>(*v));
      }
    }
  }

  /// u's conflict row, sorted ascending, into `row` (cleared first).
  void row(std::uint32_t u, std::vector<std::uint32_t>& row) const;

 private:
  const PointVec& offsets_for(std::uint32_t type) const;

  const Deployment& d_;
  mutable std::vector<PointVec> offsets_by_type_;
  const bool uniform_tiles_;
};

/// Marks a removed sensor in `old_to_new` index maps.
inline constexpr std::uint32_t kRemovedSensor = 0xffffffffu;

/// Incrementally patches a conflict graph after a deployment delta
/// instead of re-running build_conflict_graph.  `old_graph` is the
/// conflict graph of the previous deployment; `old_to_new[i]` maps old
/// sensor i to its index in `new_d` (kRemovedSensor when it was
/// removed; kept sensors must preserve relative order, added sensors
/// take the trailing indices).  `dirty` lists the NEW indices whose
/// conflict rows cannot be carried over — moved, reshaped and added
/// sensors — sorted ascending.  Clean rows are remapped; dirty rows
/// are rebuilt locally by probing sensor_at over the pairwise
/// difference sets of the prototiles (the localized form of the
/// `affects` relation), so the cost scales with the delta, not the
/// deployment.  The result is exactly build_conflict_graph(new_d).
Graph patch_conflict_graph(const Graph& old_graph, const Deployment& new_d,
                           const std::vector<std::uint32_t>& old_to_new,
                           const std::vector<std::uint32_t>& dirty);

}  // namespace latticesched

// Region-greedy planning: the plain greedy table of huge deployments
// without the materialized conflict graph.
//
// The paper's schedules are defined pointwise, so a slot table can be
// computed from streamed conflict rows (graph/interference.hpp's
// ConflictProber) instead of the all-pairs adjacency.  A cold plan is
// one serial first-fit pass in sensor-index order; each sensor reads
// only its partners v < u, so the table is by definition
// greedy_coloring(build_conflict_graph(d)) and memory stays at the
// deployment plus the slot table.
//
// The spatial partition only routes warm replans.  The deployment's
// bounding window is split into an axis-aligned grid of ~`regions`
// rectangular core boxes, each sensor assigned to exactly one.
// Conflicts reach at most the interference halo (interference_reach),
// so a region is dirty iff its halo-expanded box contains a position
// where the conflict structure changed.  Dirty members are re-colored by
// the lazy-row incremental_greedy_coloring fixpoint repair: greedy
// first-fit is the unique fixpoint of c(u) = mex{c(v) : v ~ u, v < u},
// so a warm region plan equals the cold one.  A warm plan that dirties
// every region runs the cold pass instead.
#pragma once

#include <cstdint>
#include <vector>

#include "core/plan_counters.hpp"
#include "graph/coloring.hpp"
#include "graph/interference.hpp"
#include "lattice/region.hpp"

namespace latticesched {

/// Counters of plan_regions calls (accumulated when a caller passes the
/// same struct to several).  PlanCounters carries `regions` (shards in
/// the partition), `seam_sensors` (always 0: nothing is stitched) and
/// `stitch_recolored` (clean sensors a warm repair moved); PlanSession
/// merges them into its Stats with PlanCounters::operator+=.
struct RegionShardStats : PlanCounters {
  std::uint64_t regions_planned = 0;  ///< shards (re)colored
};

/// The spatial partition: disjoint core boxes covering the deployment's
/// bounding window, plus the per-sensor assignment.
struct RegionGrid {
  std::vector<Box> boxes;                ///< core box per region
  std::vector<std::uint32_t> region_of;  ///< region index per sensor
  /// Sensor ids per region, ascending.
  std::vector<std::vector<std::uint32_t>> members;
  std::int64_t halo = 0;  ///< effective halo (>= interference_reach)
};

/// Previous-plan state for an incremental region replan, maintained by
/// PlanSession across deltas.  The contract mirrors PlanWarmStart:
/// exactness — a warm region plan equals the cold one.
struct RegionWarmStart {
  /// Slot table of the previous region plan, carried onto the
  /// CURRENT sensor ids (kUncolored for sensors without a prior slot).
  std::vector<std::uint32_t> colors;
  /// Every position where the conflict structure changed since `colors`:
  /// old positions of removed/moved/reshaped sensors plus new positions
  /// of added/moved/reshaped ones.  Routes the delta to dirty regions.
  PointVec dirty_positions;
  /// Largest interference reach of the pre-delta deployments those
  /// positions were recorded against (a radius decrease must still dirty
  /// the regions the OLD, larger prototile reached).
  std::int64_t dirty_reach = 0;
};

/// Splits the deployment's bounding window into an axis-aligned grid of
/// roughly `regions` rectangular shards (axes with the largest extent are
/// split first) and assigns every sensor to its shard.  `halo` < the
/// interference reach (including any negative value, the "auto" request)
/// is raised to the reach — a smaller halo would let deltas slip past
/// dirty-region routing.
RegionGrid partition_regions(const Deployment& d, std::size_t regions,
                             std::int64_t halo);

/// Returns a slot table identical to greedy_coloring(build_conflict_graph(d))
/// without ever materializing the full conflict graph.  Cold plans are one
/// streaming first-fit pass; with `warm`, only the members of the shards
/// dirtied by warm->dirty_positions are repaired (the result is still
/// exactly the cold table).  Counters are accumulated into `stats` when
/// non-null.
Coloring plan_regions(const Deployment& d, std::size_t regions,
                      std::int64_t halo, const RegionWarmStart* warm,
                      RegionShardStats* stats);

}  // namespace latticesched

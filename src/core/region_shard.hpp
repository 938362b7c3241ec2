// Spatial region sharding: plan huge deployments region by region.
//
// The paper's schedules are defined pointwise, so a deployment can be
// planned in rectangular spatial shards as long as the slot tables agree
// across interference seams.  This module owns the three pieces every
// consumer (planner backend, PlanSession, batch service, coordinator,
// driver) shares:
//
//   1. The partitioner: the deployment's bounding window split into an
//      axis-aligned grid of ~`regions` rectangular core boxes, each
//      sensor assigned to exactly one.  Conflicts reach at most the
//      interference halo (graph/interference.hpp's interference_reach),
//      so a box grown by the halo bounds everything a region can see.
//   2. The region planner: each shard first-fit colored independently
//      (parallel_for over shards) from a streaming per-region CSR block
//      (build_conflict_block) — the full all-pairs conflict graph is
//      never materialized, keeping memory bounded per region.
//   3. The seam stitcher: sensors with cross-region conflicts are
//      repaired with the lazy-row incremental_greedy_coloring fixpoint
//      pass.  Greedy first-fit is the unique fixpoint of
//      c(u) = mex{c(v) : v ~ u, v < u}, so the stitched table is
//      EXACTLY greedy_coloring(build_conflict_graph(d)) — the serial
//      cold plan — while only seam rows are ever streamed in.
//
// Incremental replans route a DeploymentDelta to the regions it touches:
// a region is dirty iff its halo-expanded box contains a position where
// the conflict structure changed; only dirty shards are re-colored and
// the stitch re-runs seeded with their members.  Exactness is preserved
// (same fixpoint argument), so a warm region plan equals the cold one.
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
/// the partition), `seam_sensors` and `stitch_recolored`; PlanSession
/// merges them into its Stats with PlanCounters::operator+=.
struct RegionShardStats : PlanCounters {
  std::uint64_t regions_planned = 0;  ///< shards (re)colored
};

/// The spatial partition: disjoint core boxes covering the deployment's
/// bounding window, plus the per-sensor assignment.
struct RegionGrid {
  std::vector<Box> boxes;                ///< core box per region
  std::vector<std::uint32_t> region_of;  ///< region index per sensor
  /// Sensor ids per region, ascending (global first-fit order).
  std::vector<std::vector<std::uint32_t>> members;
  std::int64_t halo = 0;  ///< effective halo (>= interference_reach)
};

/// Previous-plan state for an incremental region replan, maintained by
/// PlanSession across deltas.  The contract mirrors PlanWarmStart:
/// exactness — a warm region plan equals the cold one.
struct RegionWarmStart {
  /// Stitched slot table of the previous region plan, carried onto the
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

/// Plans `d` region by region and stitches the seams; returns a slot
/// table identical to greedy_coloring(build_conflict_graph(d)) without
/// ever materializing the full conflict graph.  With `warm`, only the
/// shards dirtied by warm->dirty_positions are re-colored before the
/// re-stitch (the result is still exactly the cold table).  Counters are
/// accumulated into `stats` when non-null.
Coloring plan_regions(const Deployment& d, std::size_t regions,
                      std::int64_t halo, const RegionWarmStart* warm,
                      RegionShardStats* stats);

}  // namespace latticesched

// Region-greedy tests: the spatial partitioner, the streaming conflict
// prober, and the warm dirty-region repair.
//
// The load-bearing pin is EXACTNESS: plan_regions must return exactly
// greedy_coloring(build_conflict_graph(d)) — the serial cold plan —
// for every partition granularity, prototile mix and delta sequence,
// because the region path replaces the materialized conflict graph on
// the scale path and any drift would silently change schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/region_shard.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/coordinator.hpp"
#include "tiling/shapes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace latticesched {
namespace {

Deployment grid_deployment(std::int64_t n, std::int64_t r = 1) {
  return Deployment::grid(Box::cube(2, 0, n - 1),
                          shapes::chebyshev_ball(2, r));
}

/// Mixed-prototile scatter: alternating Chebyshev and l1 neighborhoods
/// over a seeded random subset — exercises the pairwise conflict
/// confirmation the single-prototile fast path skips.
Deployment mixed_scatter(std::int64_t n, std::uint64_t seed) {
  PointVec cells = Box::cube(2, 0, n - 1).points();
  Rng rng(seed);
  rng.shuffle(cells);
  cells.resize(std::max<std::size_t>(2, cells.size() / 2));
  std::vector<std::uint32_t> types;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    types.push_back(static_cast<std::uint32_t>(i % 2));
  }
  return Deployment::assemble(
      std::move(cells), std::move(types),
      {shapes::chebyshev_ball(2, 1), shapes::l1_ball(2, 2)});
}

Coloring serial_greedy(const Deployment& d) {
  return greedy_coloring(build_conflict_graph(d));
}

TEST(RegionShard, PartitionCoversEverySensorExactlyOnce) {
  const Deployment d = grid_deployment(13);
  for (const std::size_t regions : {1, 3, 4, 9, 50}) {
    const RegionGrid grid = partition_regions(d, regions, -1);
    ASSERT_EQ(grid.region_of.size(), d.size());
    std::size_t total = 0;
    for (std::size_t r = 0; r < grid.members.size(); ++r) {
      for (std::uint32_t u : grid.members[r]) {
        EXPECT_EQ(grid.region_of[u], r);
        EXPECT_TRUE(grid.boxes[r].contains(d.position(u)));
      }
      EXPECT_TRUE(std::is_sorted(grid.members[r].begin(),
                                 grid.members[r].end()));
      total += grid.members[r].size();
    }
    EXPECT_EQ(total, d.size());
    EXPECT_GE(grid.halo, interference_reach(d));
  }
}

TEST(RegionShard, HaloNeverBelowInterferenceReach) {
  const Deployment d = grid_deployment(8, 2);
  // r=2 Chebyshev ball: offsets a-b reach norm_inf 4.
  EXPECT_EQ(interference_reach(d), 4);
  EXPECT_EQ(partition_regions(d, 4, -1).halo, 4);
  EXPECT_EQ(partition_regions(d, 4, 1).halo, 4);   // raised to the reach
  EXPECT_EQ(partition_regions(d, 4, 7).halo, 7);   // widening is allowed
}

TEST(RegionShard, ConflictBlockMatchesFullGraphRows) {
  for (const Deployment& d :
       {grid_deployment(9, 2), mixed_scatter(10, 7)}) {
    const Graph g = build_conflict_graph(d);
    const ConflictProber prober(d);
    std::vector<std::uint32_t> row;
    for (std::uint32_t u = 0; u < d.size(); ++u) {
      std::vector<std::uint32_t> expected = g.neighbors(u);
      std::sort(expected.begin(), expected.end());
      prober.row(u, row);
      EXPECT_EQ(row, expected) << "sensor " << u;
    }
  }
}

TEST(RegionShard, ColdPlanIdenticalToSerialGreedy) {
  std::vector<std::pair<std::string, Deployment>> cases;
  for (const std::int64_t n : {5, 12, 16}) {
    for (const std::int64_t r : {1, 2}) {
      cases.emplace_back(
          "n=" + std::to_string(n) + " r=" + std::to_string(r),
          grid_deployment(n, r));
    }
  }
  // 3-D: the candidate offsets span all three axes.
  cases.emplace_back("3-D n=7 r=1",
                     Deployment::grid(Box::cube(3, 0, 6),
                                      shapes::chebyshev_ball(3, 1)));
  for (const auto& [label, d] : cases) {
    const Coloring serial = serial_greedy(d);
    for (const std::size_t regions : {1, 2, 4, 9, 64}) {
      RegionShardStats stats;
      const Coloring planned = plan_regions(d, regions, -1, nullptr, &stats);
      EXPECT_EQ(planned, serial) << label << " regions=" << regions;
      EXPECT_EQ(stats.regions, stats.regions_planned);
    }
  }
}

TEST(RegionShard, ColdPlanIdenticalOnMixedPrototiles) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Deployment d = mixed_scatter(12, seed);
    const Coloring serial = serial_greedy(d);
    for (const std::size_t regions : {3, 6}) {
      EXPECT_EQ(plan_regions(d, regions, -1, nullptr, nullptr), serial)
          << "seed=" << seed << " regions=" << regions;
    }
  }
}

TEST(RegionShard, StitchedPlanIsAlwaysProper) {
  for (const std::uint64_t seed : {4u, 9u}) {
    const Deployment d = mixed_scatter(14, seed);
    const Graph g = build_conflict_graph(d);
    for (const std::size_t regions : {2, 5, 8}) {
      EXPECT_TRUE(is_proper_coloring(
          g, plan_regions(d, regions, -1, nullptr, nullptr)))
          << "seed=" << seed << " regions=" << regions;
    }
  }
}

TEST(RegionShard, WarmReplanMatchesColdAfterDeltaSequence) {
  // Drive a region-sharded session through removals, additions and a
  // move; every replan must equal the serial cold plan of the current
  // deployment.
  SessionConfig config;
  config.backends = {"region-greedy"};
  config.regions = 4;
  PlanSession session(grid_deployment(16), config);
  auto check = [&](const char* what) {
    const std::vector<PlanResult> results = session.replan();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << what << ": " << results[0].error;
    EXPECT_TRUE(results[0].collision_free) << what;
    EXPECT_EQ(results[0].slots.slot, serial_greedy(session.deployment()))
        << what;
  };
  check("cold");

  DeploymentDelta remove;
  remove.remove_sensors = {Point{1, 1}, Point{9, 12}};
  session.apply(remove);
  check("after remove");

  DeploymentDelta add;
  add.add_sensors.push_back(
      DeploymentDelta::SensorAdd{Point{16, 3}, std::nullopt});
  session.apply(add);
  check("after add");

  DeploymentDelta move;
  move.move_sensors.push_back(
      DeploymentDelta::SensorMove{Point{4, 4}, Point{17, 17}});
  session.apply(move);
  check("after move (hull growth re-partitions)");

  DeploymentDelta reshape;
  DeploymentDelta::RadiusChange rc;
  rc.sensors = {Point{8, 8}};
  rc.radius = 2;
  reshape.set_radius.push_back(std::move(rc));
  session.apply(reshape);
  check("after radius change");
}

TEST(RegionShard, SessionRoutesDeltaToDirtyRegionOnly) {
  SessionConfig config;
  config.backends = {"region-greedy"};
  config.regions = 4;
  PlanSession session(grid_deployment(16), config);
  (void)session.replan();
  const PlanSession::Stats after_cold = session.stats();
  EXPECT_EQ(after_cold.regions, 4u);
  EXPECT_EQ(after_cold.regions_replanned, 4u);  // cold = every shard

  // One sensor deep inside region 0 dies: with a halo of 2 the dirty
  // neighborhood stays inside that region's expanded box, so exactly
  // one shard replans.
  DeploymentDelta delta;
  delta.remove_sensors = {Point{1, 1}};
  session.apply(delta);
  (void)session.replan();
  const PlanSession::Stats after_delta = session.stats();
  EXPECT_EQ(after_delta.regions_replanned - after_cold.regions_replanned,
            1u);
  EXPECT_EQ(session.replan()[0].slots.slot,
            serial_greedy(session.deployment()));
}

TEST(RegionShard, RandomChurnKeepsWarmAndColdIdentical) {
  Rng rng(11);
  SessionConfig config;
  config.backends = {"region-greedy"};
  config.regions = 6;
  PlanSession session(grid_deployment(12), config);
  (void)session.replan();
  std::int64_t spare_row = 12;
  for (int step = 0; step < 6; ++step) {
    DeploymentDelta delta;
    if (step % 2 == 0) {
      delta.remove_sensors = {session.deployment().position(
          rng.next_below(session.deployment().size()))};
    } else {
      delta.add_sensors.push_back(DeploymentDelta::SensorAdd{
          Point{spare_row, static_cast<std::int64_t>(step)}, std::nullopt});
      ++spare_row;
    }
    session.apply(delta);
    const std::vector<PlanResult> results = session.replan();
    ASSERT_TRUE(results[0].ok) << "step " << step << ": " << results[0].error;
    EXPECT_EQ(results[0].slots.slot, serial_greedy(session.deployment()))
        << "step " << step;
  }
}

TEST(RegionShard, GridLargeScenarioGeneratesLinearly) {
  ScenarioParams params;
  params.n = 5000;
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("grid-large", params);
  EXPECT_EQ(inst.deployment.size(), 5000u);
  // side = ceil(sqrt(5000)) = 71; first 5000 cells row-major.
  EXPECT_EQ(inst.deployment.position(0), (Point{0, 0}));
  EXPECT_EQ(inst.deployment.position(71), (Point{1, 0}));
  EXPECT_EQ(inst.deployment.position(4999), (Point{70, 29}));
}

TEST(RegionShard, GridScenarioDelegatesToGridLargeAtScale) {
  ScenarioParams params;
  params.n = 100000;  // sensor-count semantics past the threshold
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("grid", params);
  EXPECT_EQ(inst.scenario, "grid-large");
  EXPECT_EQ(inst.deployment.size(), 100000u);
}

TEST(RegionShard, RandomSubsetSparseWindowNeverMaterialized) {
  ScenarioParams params;
  params.n = 100000;  // 10^10-cell window; dense shuffle would OOM
  params.density = 1e-6;
  const ScenarioInstance inst =
      ScenarioRegistry::global().build("random-subset", params);
  EXPECT_EQ(inst.deployment.size(), 10000u);
  // Rejection sampling cannot cover dense scatters; the guard throws
  // instead of silently allocating the quadratic window.
  params.density = 0.75;
  EXPECT_THROW(ScenarioRegistry::global().build("random-subset", params),
               std::invalid_argument);
}

TEST(RegionShard, PeakRssProbeReportsCurrentUsage) {
#ifdef __linux__
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

TEST(RegionShard, ReportFooterRoundTripsRegionCounters) {
  BatchReport report;
  report.items.resize(1);
  report.items[0].scenario = "grid";
  report.items[0].label = "grid(n=4 r=1)";
  report.items[0].built = true;
  report.regions = 16;
  report.seam_sensors = 1234;
  report.stitch_recolored = 56;
  const BatchReport parsed =
      parse_batch_report_json(batch_report_to_json(report));
  EXPECT_EQ(parsed.regions, 16u);
  EXPECT_EQ(parsed.seam_sensors, 1234u);
  EXPECT_EQ(parsed.stitch_recolored, 56u);
}

TEST(RegionShard, ColdAndSingleRegionPlansRecolorNothing) {
  // One region: every delta of a failure trace dirties it, so each step
  // runs the cold pass — nothing is repaired, nothing recolored.
  BatchItem trace;
  trace.query.scenario = "grid-failures";
  trace.backends = {"region-greedy"};
  trace.regions = 1;
  PlanService service;
  const BatchReport warm = service.run({trace});
  ASSERT_TRUE(warm.all_ok());
  ASSERT_GT(warm.items[0].steps.size(), 1u);
  EXPECT_EQ(warm.regions, 1u);
  EXPECT_EQ(warm.seam_sensors, 0u);
  EXPECT_EQ(warm.stitch_recolored, 0u);

  // A cold multi-region plan is one streaming pass: no seam, no stitch.
  BatchItem cold;
  cold.query.scenario = "grid";
  cold.query.params.n = 30;
  cold.backends = {"region-greedy"};
  cold.regions = 9;
  const BatchReport sharded = service.run({cold});
  ASSERT_TRUE(sharded.all_ok());
  EXPECT_EQ(sharded.regions, 9u);
  EXPECT_EQ(sharded.seam_sensors, 0u);
  EXPECT_EQ(sharded.stitch_recolored, 0u);
}

TEST(RegionShard, BatchItemsRoundTripRegionKnobs) {
  BatchItem item;
  item.query.scenario = "grid-large";
  item.query.params.n = 1000000;
  item.backends = {"region-greedy"};
  item.regions = 64;
  item.region_halo = 3;
  const std::vector<BatchItem> parsed =
      parse_batch_items_json(batch_items_to_json({item}));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].regions, 64u);
  EXPECT_EQ(parsed[0].region_halo, 3);
  EXPECT_EQ(parsed[0].query.params.n, 1000000);
}

TEST(RegionShard, ShardWeightsSaturateInsteadOfWrapping) {
  // n = 2^32 makes the naive n^2 weight wrap to 0; saturated weights
  // keep the million-sensor item the heaviest, so weighted LPT gives it
  // a shard of its own instead of stacking real work on top of it.
  std::vector<BatchItem> items(4);
  items[0].query.params.n = std::int64_t{1} << 32;
  for (std::size_t i = 1; i < items.size(); ++i) {
    items[i].query.params.n = 100;
  }
  const auto shards = dist::ShardCoordinator::partition(
      items, 2, dist::ShardStrategy::kSizeWeighted);
  ASSERT_EQ(shards.size(), 2u);
  for (const auto& shard : shards) {
    if (std::find(shard.begin(), shard.end(), 0u) != shard.end()) {
      EXPECT_EQ(shard.size(), 1u) << "huge item must ride alone";
    }
  }
}

}  // namespace
}  // namespace latticesched

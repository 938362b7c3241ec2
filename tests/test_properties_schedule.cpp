// Property-style randomized tests for the schedule engine and the
// planner pipeline: random tilings and random points must keep the dense
// slot_of identical to the seed reference, may_send must be periodic,
// slot histograms must be perfectly even on whole-period windows, and
// every registry backend must produce collision-free plans.
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/planner.hpp"
#include "core/tiling_scheduler.hpp"
#include "test_helpers.hpp"
#include "tiling/exactness.hpp"
#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

Point random_point(Rng& rng, std::int64_t radius) {
  return Point{rng.next_int(-radius, radius), rng.next_int(-radius, radius)};
}

TEST(ScheduleProperties, SlotOfMatchesReferenceOnRandomTilings) {
  Rng rng(2026);
  int exact_seen = 0;
  for (int trial = 0; trial < 40 && exact_seen < 12; ++trial) {
    const Prototile tile =
        test_helpers::random_polyomino(rng, 3 + trial % 5);
    TorusSearchConfig cfg;
    cfg.max_period_cells = 64;
    cfg.node_limit = 200'000;
    const ExactnessResult exact = decide_exactness(tile, cfg);
    if (!exact.tiling.has_value()) continue;
    ++exact_seen;
    const TilingSchedule schedule(*exact.tiling);
    for (int q = 0; q < 200; ++q) {
      const Point p = random_point(rng, 200);
      EXPECT_EQ(schedule.slot_of(p), schedule.slot_of_reference(p))
          << "tile " << trial << " point " << p.to_string();
    }
    // Far beyond the fastmod range the general path must agree too.
    for (int q = 0; q < 20; ++q) {
      const Point p = random_point(rng, std::int64_t{1} << 40);
      EXPECT_EQ(schedule.slot_of(p), schedule.slot_of_reference(p));
    }
  }
  EXPECT_GE(exact_seen, 6) << "random polyomino generator got unlucky";
}

TEST(ScheduleProperties, MaySendIsPeriodic) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const Prototile tile =
        test_helpers::random_polyomino(rng, 3 + trial);
    const ExactnessResult exact = decide_exactness(tile);
    if (!exact.tiling.has_value()) continue;
    const TilingSchedule schedule(*exact.tiling);
    const std::uint32_t m = schedule.period();
    for (int q = 0; q < 50; ++q) {
      const Point p = random_point(rng, 100);
      const std::uint64_t t = rng.next_below(1'000'000);
      EXPECT_EQ(schedule.may_send(p, t), schedule.may_send(p, t + m));
      EXPECT_EQ(schedule.may_send(p, t), schedule.may_send(p, t + 7ull * m));
      // Exactly one send opportunity per period.
      std::uint32_t sends = 0;
      for (std::uint32_t dt = 0; dt < m; ++dt) {
        if (schedule.may_send(p, t + dt)) ++sends;
      }
      EXPECT_EQ(sends, 1u);
    }
  }
}

TEST(ScheduleProperties, SlotHistogramEvenOnWholePeriodWindows) {
  Rng rng(99);
  int checked = 0;
  for (int trial = 0; trial < 30 && checked < 8; ++trial) {
    const Prototile tile =
        test_helpers::random_polyomino(rng, 3 + trial % 4);
    TorusSearchConfig cfg;
    cfg.max_period_cells = 48;
    cfg.node_limit = 200'000;
    // The sweep only produces diagonal periods a·Z x b·Z, whose whole-
    // period windows are boxes.
    const auto tiling = search_periodic_tiling({tile}, cfg);
    if (!tiling.has_value()) continue;
    ++checked;
    const TilingSchedule schedule(*tiling);
    const IntMatrix& basis = tiling->period().basis();
    const std::int64_t a = basis.at(0, 0);
    const std::int64_t b = basis.at(1, 1);
    const Box window(Point{-a, -2 * b}, Point{2 * a - 1, b - 1});  // 3x3 periods
    const auto histogram = slot_histogram(schedule, window);
    ASSERT_EQ(histogram.size(), schedule.period());
    for (std::size_t s = 1; s < histogram.size(); ++s) {
      EXPECT_EQ(histogram[s], histogram[0]) << "slot " << s;
    }
    EXPECT_DOUBLE_EQ(slot_balance(histogram), 1.0);
  }
  EXPECT_GE(checked, 4) << "random polyomino generator got unlucky";
}

TEST(PlannerProperties, EveryBackendCollisionFreeOnGrid) {
  const Deployment d =
      Deployment::grid(Box::cube(2, 0, 6), shapes::chebyshev_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  request.sa.max_iters = 20'000;
  const auto results = PlannerRegistry::global().plan_all(request);
  // The default fan-out runs every registered backend.
  ASSERT_EQ(results.size(), PlannerRegistry::global().names().size());
  for (const PlanResult& r : results) {
    ASSERT_TRUE(r.ok) << r.backend << ": " << r.error;
    EXPECT_TRUE(r.collision_free) << r.backend;
    EXPECT_EQ(r.slots.slot.size(), d.size()) << r.backend;
    // No backend may beat the paper's lower bound.
    EXPECT_GE(r.slots.period, r.lower_bound) << r.backend;
    EXPECT_GE(r.optimality_gap, 1.0) << r.backend;
  }
}

TEST(PlannerProperties, EveryBackendCollisionFreeOnRandomScatter) {
  Rng rng(31337);
  PointVec cells = Box::cube(2, 0, 11).points();
  rng.shuffle(cells);
  cells.resize(cells.size() / 3);
  const Deployment d =
      Deployment::uniform(std::move(cells), shapes::l1_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  request.sa.max_iters = 20'000;
  const auto results = PlannerRegistry::global().plan_all(request);
  for (const PlanResult& r : results) {
    ASSERT_TRUE(r.ok) << r.backend << ": " << r.error;
    EXPECT_TRUE(r.collision_free) << r.backend;
  }
}

TEST(PlannerProperties, MixedTilingDeploymentUsesProvidedTiling) {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto tiling = find_tiling_on_torus(
      {shapes::s_tetromino(), shapes::z_tetromino()},
      Sublattice::diagonal({4, 4}), cfg);
  ASSERT_TRUE(tiling.has_value());
  const Deployment d = Deployment::from_tiling(*tiling, Box::centered(2, 7));
  PlanRequest request;
  request.deployment = &d;
  request.tiling = &*tiling;
  request.sa.max_iters = 10'000;
  const auto results = PlannerRegistry::global().plan_all(request);
  for (const PlanResult& r : results) {
    ASSERT_TRUE(r.ok) << r.backend << ": " << r.error;
    EXPECT_TRUE(r.collision_free) << r.backend;
  }
}

}  // namespace
}  // namespace latticesched

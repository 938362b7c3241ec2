// Determinism contract of the parallel execution layer: every parallel
// path must produce byte-identical results to the serial path.  Each test
// runs the same computation with threads=1 and threads=N and compares
// outputs structurally (tilings placement-by-placement).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

/// Restores the global thread override on scope exit so test order
/// doesn't leak configuration.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

bool same_tiling(const Tiling& a, const Tiling& b) {
  return a.period() == b.period() && a.placements() == b.placements() &&
         a.prototile_count() == b.prototile_count();
}

TEST(Parallel, ParallelForCoversEveryIndexOnce) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ParallelForPropagatesExceptions) {
  ThreadGuard guard;
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(0, 64,
                   [&](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing region.
  std::atomic<std::size_t> sum{0};
  parallel_for(0, 64, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(Parallel, NestedRegionsRunInline) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::atomic<int> inner_total{0};
  parallel_for(0, 8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // A nested region must execute inline rather than deadlock.
    int local = 0;
    parallel_for(0, 16, [&](std::size_t) { ++local; });
    EXPECT_EQ(local, 16);
    inner_total += local;
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelDeterminism, PeriodSweepMatchesSerial) {
  ThreadGuard guard;
  // Mixed S/Z with every prototile required: the sweep rejects several
  // tori before the first mixed tiling appears.
  const std::vector<Prototile> protos = {shapes::s_tetromino(),
                                         shapes::z_tetromino()};
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  cfg.max_period_cells = 64;

  set_parallel_threads(1);
  const auto serial = search_periodic_tiling(protos, cfg);
  ASSERT_TRUE(serial.has_value());

  for (std::size_t threads : {2, 4, 8}) {
    set_parallel_threads(threads);
    const auto parallel = search_periodic_tiling(protos, cfg);
    ASSERT_TRUE(parallel.has_value()) << threads << " threads";
    EXPECT_TRUE(same_tiling(*serial, *parallel)) << threads << " threads";
  }
}

TEST(ParallelDeterminism, PeriodSweepMatchesSerialWhenUnsatisfiable) {
  ThreadGuard guard;
  // The F-pentomino is not exact (Beauquier–Nivat), so the whole sweep
  // is explored and both modes must agree on the failure.
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}}, "F");
  TorusSearchConfig cfg;
  cfg.max_period_cells = 60;

  set_parallel_threads(1);
  TorusSearchStats serial_stats;
  cfg.stats = &serial_stats;
  EXPECT_FALSE(search_periodic_tiling({f}, cfg).has_value());

  set_parallel_threads(4);
  TorusSearchStats parallel_stats;
  cfg.stats = &parallel_stats;
  EXPECT_FALSE(search_periodic_tiling({f}, cfg).has_value());
  // Failure reports the last torus's counters in both modes.
  EXPECT_EQ(serial_stats.nodes, parallel_stats.nodes);
}

TEST(ParallelDeterminism, AllTilingsFanOutMatchesSerial) {
  ThreadGuard guard;
  const std::vector<Prototile> protos = {shapes::s_tetromino(),
                                         shapes::z_tetromino()};
  const Sublattice period = Sublattice::diagonal({4, 4});

  set_parallel_threads(1);
  TorusSearchStats serial_stats;
  TorusSearchConfig cfg;
  cfg.stats = &serial_stats;
  const auto serial = all_tilings_on_torus(protos, period, 100000, cfg);
  ASSERT_FALSE(serial.empty());

  for (std::size_t threads : {2, 8}) {
    set_parallel_threads(threads);
    TorusSearchStats parallel_stats;
    cfg.stats = &parallel_stats;
    const auto parallel = all_tilings_on_torus(protos, period, 100000, cfg);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_tiling(serial[i], parallel[i]))
          << "tiling " << i << " at " << threads << " threads";
    }
    // Fully explored tree: the engines expand the same placements.
    EXPECT_EQ(serial_stats.nodes, parallel_stats.nodes)
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, AllTilingsFanOutRespectsResultLimit) {
  ThreadGuard guard;
  const std::vector<Prototile> protos = {shapes::s_tetromino(),
                                         shapes::z_tetromino()};
  const Sublattice period = Sublattice::diagonal({4, 4});

  set_parallel_threads(1);
  const auto serial = all_tilings_on_torus(protos, period, 5);
  ASSERT_EQ(serial.size(), 5u);

  set_parallel_threads(4);
  const auto parallel = all_tilings_on_torus(protos, period, 5);
  ASSERT_EQ(parallel.size(), 5u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(same_tiling(serial[i], parallel[i])) << "tiling " << i;
  }
}

}  // namespace
}  // namespace latticesched

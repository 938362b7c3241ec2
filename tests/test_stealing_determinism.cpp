// Search invariance under parallelism: results AND node counts of the
// dense engine must be identical to the serial run for EVERY thread
// count, with the parallel paths switched on or off.  The suite keeps
// the name of the work-stealing subtree engine it was written for; the
// engine now searches each torus serially, and the only parallel path
// left is the speculative period sweep across tori.  (test_parallel.cpp
// pins threads=1 vs N on the default config; this file sweeps more
// thread counts and the use_parallel switch.)
#include <gtest/gtest.h>

#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(0); }
};

bool same_tiling(const Tiling& a, const Tiling& b) {
  return a.period() == b.period() && a.placements() == b.placements() &&
         a.prototile_count() == b.prototile_count();
}

// The F-pentomino is not exact (Beauquier–Nivat), so the period sweep
// explores every torus to exhaustion — the worst case for divergent
// node accounting.  Every (threads, use_parallel) combination must
// report the same failure with the same node total as serial.
TEST(StealingDeterminism, UnsatSweepNodesInvariantAcrossThreadsAndDepths) {
  ThreadGuard guard;
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}}, "F");
  TorusSearchConfig cfg;
  cfg.max_period_cells = 60;

  set_parallel_threads(1);
  TorusSearchStats serial_stats;
  cfg.stats = &serial_stats;
  EXPECT_FALSE(search_periodic_tiling({f}, cfg).has_value());
  EXPECT_GT(serial_stats.nodes, 0u);

  for (std::size_t threads : {2, 4, 8}) {
    for (bool use_parallel : {true, false}) {
      set_parallel_threads(threads);
      TorusSearchStats stats;
      cfg.stats = &stats;
      cfg.use_parallel = use_parallel;
      EXPECT_FALSE(search_periodic_tiling({f}, cfg).has_value())
          << threads << " threads, use_parallel " << use_parallel;
      EXPECT_EQ(stats.nodes, serial_stats.nodes)
          << threads << " threads, use_parallel " << use_parallel;
    }
  }
}

// Full enumeration: the result list must equal the serial DFS order
// placement-by-placement, whatever the thread count.
TEST(StealingDeterminism, EnumerationIdenticalAcrossSpawnDepths) {
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

  for (std::size_t threads : {2, 4, 8}) {
    for (bool use_parallel : {true, false}) {
      set_parallel_threads(threads);
      TorusSearchStats stats;
      cfg.stats = &stats;
      cfg.use_parallel = use_parallel;
      const auto parallel = all_tilings_on_torus(protos, period, 100000, cfg);
      ASSERT_EQ(serial.size(), parallel.size())
          << threads << " threads, use_parallel " << use_parallel;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(same_tiling(serial[i], parallel[i]))
            << "tiling " << i << ", " << threads << " threads, use_parallel "
            << use_parallel;
      }
      EXPECT_EQ(stats.nodes, serial_stats.nodes)
          << threads << " threads, use_parallel " << use_parallel;
    }
  }
}

// A result limit cuts the DFS mid-tree; the cut must be the serial one
// — same tilings, same node charge — not merely "some 5 tilings".
TEST(StealingDeterminism, ResultLimitCutMatchesSerialExactly) {
  ThreadGuard guard;
  const std::vector<Prototile> protos = {shapes::s_tetromino(),
                                         shapes::z_tetromino()};
  const Sublattice period = Sublattice::diagonal({4, 4});

  set_parallel_threads(1);
  TorusSearchStats serial_stats;
  TorusSearchConfig cfg;
  cfg.stats = &serial_stats;
  const auto serial = all_tilings_on_torus(protos, period, 5, cfg);
  ASSERT_EQ(serial.size(), 5u);

  for (std::size_t threads : {2, 4, 8}) {
    set_parallel_threads(threads);
    TorusSearchStats stats;
    cfg.stats = &stats;
    const auto parallel = all_tilings_on_torus(protos, period, 5, cfg);
    ASSERT_EQ(parallel.size(), 5u) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_tiling(serial[i], parallel[i]))
          << "tiling " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(stats.nodes, serial_stats.nodes) << threads << " threads";
  }
}

}  // namespace
}  // namespace latticesched

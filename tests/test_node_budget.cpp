// Regression pin for TorusSearchConfig::node_limit accounting: the
// budget is scoped per torus, never globally.  Every torus is searched
// serially, so node counts — truncated or not — are identical for every
// thread count, and a truncated search never exceeds the per-torus cap.
#include <gtest/gtest.h>

#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

std::vector<Prototile> mixed() {
  return {shapes::s_tetromino(), shapes::z_tetromino()};
}

std::uint64_t count_nodes(std::size_t threads, std::uint64_t node_limit,
                          std::size_t* tilings = nullptr) {
  set_parallel_threads(threads);
  TorusSearchConfig cfg;
  cfg.node_limit = node_limit;
  TorusSearchStats stats;
  cfg.stats = &stats;
  // Exhaustive enumeration (limit far above the tiling count) so no
  // early-exit cancellation perturbs the accounting.
  const auto found = all_tilings_on_torus(mixed(), Sublattice::diagonal(
                                              {4, 4}),
                                          100'000, cfg);
  if (tilings != nullptr) *tilings = found.size();
  set_parallel_threads(0);
  return stats.nodes;
}

TEST(NodeBudget, AmpleBudgetSerialAndParallelExpandIdenticalNodes) {
  std::size_t tilings_serial = 0, tilings_parallel = 0;
  const std::uint64_t serial =
      count_nodes(1, 20'000'000, &tilings_serial);
  const std::uint64_t parallel =
      count_nodes(4, 20'000'000, &tilings_parallel);
  EXPECT_GT(tilings_serial, 0u);
  EXPECT_EQ(tilings_serial, tilings_parallel);
  // Within budget both runs expand the whole tree: node counts agree.
  EXPECT_EQ(serial, parallel);
}

TEST(NodeBudget, TruncatedBudgetIsIdenticalAcrossThreadCounts) {
  const std::uint64_t limit = 40;
  const std::uint64_t serial = count_nodes(1, limit);
  // One budget for the whole torus; the search may overshoot by exactly
  // the final budget-exhausting increment.
  EXPECT_EQ(serial, limit + 1);
  for (std::size_t threads : {2, 4}) {
    EXPECT_EQ(count_nodes(threads, limit), serial) << threads << " threads";
  }
}

TEST(NodeBudget, SweepBudgetAppliesPerTorus) {
  // The F-pentomino is not exact: the sweep visits every torus, each
  // with a fresh budget.  The reported counter (last torus searched)
  // must respect the per-torus cap even though the sweep's total work
  // is many multiples of it.
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}},
                    "F-pentomino");
  set_parallel_threads(1);
  TorusSearchConfig cfg;
  cfg.max_period_cells = 60;
  cfg.node_limit = 25;
  TorusSearchStats stats;
  cfg.stats = &stats;
  const auto t = search_periodic_tiling({f}, cfg);
  set_parallel_threads(0);
  EXPECT_FALSE(t.has_value());
  EXPECT_LE(stats.nodes, cfg.node_limit + 1);
}

}  // namespace
}  // namespace latticesched

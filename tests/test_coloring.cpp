#include "graph/coloring.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/scenario.hpp"
#include "graph/sa_coloring.hpp"
#include "util/rng.hpp"

namespace latticesched {
namespace {

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      g.add_edge(i, j);
    }
  }
  return g;
}

Graph cycle_graph(std::size_t n) {
  Graph g(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.add_edge(i, static_cast<std::uint32_t>((i + 1) % n));
  }
  return g;
}

Graph petersen_graph() {
  Graph g(10);
  for (std::uint32_t i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);          // outer C5
    g.add_edge(i + 5, ((i + 2) % 5) + 5);  // inner pentagram
    g.add_edge(i, i + 5);                // spokes
  }
  return g;
}

TEST(Coloring, ColorCountAndProperness) {
  const Graph g = cycle_graph(4);
  const Coloring c = {0, 1, 0, 1};
  EXPECT_EQ(color_count(c), 2u);
  EXPECT_TRUE(is_proper_coloring(g, c));
  EXPECT_FALSE(is_proper_coloring(g, {0, 0, 1, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1}));  // size mismatch
}

TEST(Coloring, GreedyProducesProperColorings) {
  for (std::size_t n : {3u, 5u, 8u}) {
    const Graph g = cycle_graph(n);
    EXPECT_TRUE(is_proper_coloring(g, greedy_coloring(g)));
    EXPECT_TRUE(is_proper_coloring(g, welsh_powell_coloring(g)));
    EXPECT_TRUE(is_proper_coloring(g, dsatur_coloring(g)));
  }
}

TEST(Coloring, DsaturOptimalOnEvenCycle) {
  const Graph g = cycle_graph(8);
  EXPECT_EQ(color_count(dsatur_coloring(g)), 2u);
}

// The original O(n^2) DSATUR scan, kept as the oracle the heap version
// must reproduce color for color: the first vertex (lowest index) of
// maximal (saturation, degree) is colored with its smallest free color.
Coloring dsatur_reference(const Graph& g) {
  const std::size_t n = g.size();
  Coloring colors(n, kUncolored);
  std::vector<std::set<std::uint32_t>> sat(n);
  std::vector<bool> done(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::uint32_t pick = 0;
    bool found = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (done[v]) continue;
      if (!found || sat[v].size() > sat[pick].size() ||
          (sat[v].size() == sat[pick].size() &&
           g.degree(v) > g.degree(pick))) {
        pick = v;
        found = true;
      }
    }
    std::uint32_t c = 0;
    while (sat[pick].count(c) != 0) ++c;
    colors[pick] = c;
    done[pick] = true;
    for (std::uint32_t w : g.neighbors(pick)) sat[w].insert(c);
  }
  return colors;
}

Graph random_graph(Rng& rng, std::size_t n, std::uint64_t edge_pct) {
  Graph g(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (rng.next_below(100) < edge_pct) g.add_edge(u, v);
    }
  }
  return g;
}

Graph scenario_conflict_graph(const char* name, std::int64_t n) {
  ScenarioParams params;
  params.n = n;
  return build_conflict_graph(
      ScenarioRegistry::global().build(name, params).deployment);
}

TEST(DsaturHeap, MatchesReferenceOnRandomGraphs) {
  Rng rng(2024);
  for (std::uint64_t pct : {1u, 5u, 15u, 40u, 75u, 95u}) {
    for (std::size_t n : {2u, 9u, 40u, 130u}) {
      for (int trial = 0; trial < 3; ++trial) {
        const Graph g = random_graph(rng, n, pct);
        EXPECT_EQ(dsatur_coloring(g), dsatur_reference(g))
            << "n=" << n << " pct=" << pct << " trial=" << trial;
      }
    }
  }
}

TEST(DsaturHeap, MatchesReferenceOnAllTieGraphs) {
  // Empty, edgeless, complete and regular graphs: every vertex ties on
  // degree, so only the index tie-break decides the order.
  Graph torus(36);  // 6x6 torus grid: 4-regular
  for (std::uint32_t r = 0; r < 6; ++r) {
    for (std::uint32_t c = 0; c < 6; ++c) {
      torus.add_edge(r * 6 + c, r * 6 + (c + 1) % 6);
      torus.add_edge(r * 6 + c, ((r + 1) % 6) * 6 + c);
    }
  }
  for (const Graph& g :
       {Graph(0), Graph(1), Graph(17), complete_graph(1), complete_graph(9),
        complete_graph(70), cycle_graph(3), cycle_graph(12), cycle_graph(13),
        petersen_graph(), torus}) {
    EXPECT_EQ(dsatur_coloring(g), dsatur_reference(g)) << g.size();
  }
}

TEST(DsaturHeap, MatchesReferenceOnConflictGraphs) {
  for (const auto& [name, n] : {std::pair<const char*, std::int64_t>{"grid", 12},
                                {"hex", 12},
                                {"cube3d", 9}}) {
    const Graph g = scenario_conflict_graph(name, n);
    ASSERT_GT(g.edge_count(), 0u) << name;
    EXPECT_EQ(dsatur_coloring(g), dsatur_reference(g)) << name;
  }
}

TEST(ExactChromatic, KnownChromaticNumbers) {
  EXPECT_EQ(exact_chromatic(complete_graph(4)).colors, 4u);
  EXPECT_EQ(exact_chromatic(cycle_graph(5)).colors, 3u);   // odd cycle
  EXPECT_EQ(exact_chromatic(cycle_graph(6)).colors, 2u);   // even cycle
  EXPECT_EQ(exact_chromatic(petersen_graph()).colors, 3u);
  for (const Graph& g :
       {complete_graph(4), cycle_graph(5), petersen_graph()}) {
    const auto r = exact_chromatic(g);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_TRUE(is_proper_coloring(g, r.coloring));
    EXPECT_EQ(color_count(r.coloring), r.colors);
  }
}

TEST(ExactChromatic, EmptyAndEdgelessGraphs) {
  const auto r0 = exact_chromatic(Graph(0));
  EXPECT_EQ(r0.colors, 0u);
  EXPECT_TRUE(r0.proven_optimal);
  const auto r1 = exact_chromatic(Graph(5));
  EXPECT_EQ(r1.colors, 1u);
  EXPECT_TRUE(r1.proven_optimal);
}

TEST(ExactChromatic, CliqueLowerBoundReported) {
  const auto r = exact_chromatic(complete_graph(5));
  EXPECT_EQ(r.clique_lower_bound, 5u);
  EXPECT_EQ(r.colors, 5u);
}

TEST(ExactChromatic, HeuristicsNeverBeatExact) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(12);
    for (std::uint32_t i = 0; i < 12; ++i) {
      for (std::uint32_t j = i + 1; j < 12; ++j) {
        if (rng.next_bool(0.35)) g.add_edge(i, j);
      }
    }
    const auto exact = exact_chromatic(g);
    ASSERT_TRUE(exact.proven_optimal);
    EXPECT_LE(exact.colors, color_count(greedy_coloring(g)));
    EXPECT_LE(exact.colors, color_count(welsh_powell_coloring(g)));
    EXPECT_LE(exact.colors, color_count(dsatur_coloring(g)));
    EXPECT_GE(exact.colors, exact.clique_lower_bound);
  }
}

TEST(ExactChromatic, CallerBoundStopsTheSearch) {
  // C5 has a greedy clique of 2 but needs 3 colors; told the bound is 3,
  // the search stops at DSATUR's first 3-coloring and reports it.
  const Graph g = cycle_graph(5);
  const auto free_run = exact_chromatic(g);
  const auto bounded = exact_chromatic(g, {}, 3);
  EXPECT_EQ(free_run.clique_lower_bound, 2u);
  EXPECT_EQ(bounded.clique_lower_bound, 3u);
  EXPECT_EQ(bounded.colors, 3u);
  EXPECT_TRUE(bounded.proven_optimal);
  EXPECT_EQ(bounded.nodes, 0u);
  EXPECT_GT(free_run.nodes, 0u);
  // A bound below the greedy clique changes nothing.
  EXPECT_EQ(exact_chromatic(complete_graph(5), {}, 2).clique_lower_bound, 5u);
}

TEST(ExactChromatic, NodeBudgetDegradesGracefully) {
  ExactColoringConfig cfg;
  cfg.node_limit = 3;
  Graph g(14);
  Rng rng(7);
  for (std::uint32_t i = 0; i < 14; ++i) {
    for (std::uint32_t j = i + 1; j < 14; ++j) {
      if (rng.next_bool(0.4)) g.add_edge(i, j);
    }
  }
  const auto r = exact_chromatic(g, cfg);
  // Whatever happened, the result must be a proper coloring.
  EXPECT_TRUE(is_proper_coloring(g, r.coloring));
  EXPECT_EQ(color_count(r.coloring), r.colors);
}

TEST(SaColoring, FindsProperColoringsOnEasyGraphs) {
  const Graph g = cycle_graph(10);
  const auto c = sa_find_coloring(g, 2);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(is_proper_coloring(g, *c));
}

TEST(SaColoring, ImpossibleTargetFails) {
  const Graph g = complete_graph(5);
  SaConfig cfg;
  cfg.max_iters = 20'000;
  cfg.restarts = 2;
  EXPECT_FALSE(sa_find_coloring(g, 4, cfg).has_value());
}

TEST(SaColoring, MinColoringNeverWorseThanDsatur) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g(15);
    for (std::uint32_t i = 0; i < 15; ++i) {
      for (std::uint32_t j = i + 1; j < 15; ++j) {
        if (rng.next_bool(0.3)) g.add_edge(i, j);
      }
    }
    SaConfig cfg;
    cfg.max_iters = 30'000;
    const auto r = sa_min_coloring(g, cfg);
    EXPECT_TRUE(is_proper_coloring(g, r.coloring));
    EXPECT_LE(r.colors, color_count(dsatur_coloring(g)));
  }
}

TEST(SaColoring, StopsAtTheLowerBound) {
  // DSATUR already meets max_k |N_k| = 9 on the 3x3-ball grid, so no
  // annealing attempt runs at all.
  const Graph g = scenario_conflict_graph("grid", 12);
  const Coloring dsatur = dsatur_coloring(g);
  ASSERT_EQ(color_count(dsatur), 9u);
  SaConfig cfg;
  const auto r = sa_min_coloring(g, cfg, 9);
  EXPECT_EQ(r.total_iterations, 0u);
  EXPECT_EQ(r.coloring, dsatur);
  EXPECT_GT(sa_min_coloring(g, cfg).total_iterations, 0u);
}

TEST(SaColoring, ValidBoundLeavesTheResultUnchanged) {
  // Every k attempt seeds its own Rng, so skipping the attempts below a
  // clique bound only saves work.
  Rng rng(12);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_graph(rng, 24, 20 + 10 * trial);
    const auto bound = static_cast<std::uint32_t>(g.greedy_clique().size());
    SaConfig cfg;
    cfg.max_iters = 5'000;
    cfg.seed = 100 + trial;
    const auto free_run = sa_min_coloring(g, cfg);
    const auto bounded = sa_min_coloring(g, cfg, bound);
    EXPECT_EQ(bounded.coloring, free_run.coloring) << "trial " << trial;
    EXPECT_EQ(bounded.colors, free_run.colors) << "trial " << trial;
    EXPECT_LE(bounded.total_iterations, free_run.total_iterations);
  }
}

TEST(SaColoring, ZeroColorsOnlyForEmptyGraph) {
  EXPECT_TRUE(sa_find_coloring(Graph(0), 0).has_value());
  EXPECT_FALSE(sa_find_coloring(Graph(3), 0).has_value());
}

// ---------------------------------------------------------------------------
// Incremental greedy repair (the PlanSession warm start)
// ---------------------------------------------------------------------------

TEST(IncrementalGreedy, NoDirtyVerticesIsTheIdentity) {
  Rng rng(5);
  const Graph g = random_graph(rng, 40, 20);
  const Coloring base = greedy_coloring(g);
  EXPECT_EQ(incremental_greedy_coloring(g, base, {}), base);
}

TEST(IncrementalGreedy, AllUncoloredReproducesGreedyFromScratch) {
  Rng rng(6);
  const Graph g = random_graph(rng, 50, 15);
  EXPECT_EQ(incremental_greedy_coloring(
                g, Coloring(g.size(), kUncolored), {}),
            greedy_coloring(g));
}

TEST(IncrementalGreedy, RepairsEditedGraphsExactly) {
  // Color a graph, edit it by inserting extra edges, hand the OLD
  // colors plus the touched vertices to the repair, and demand the
  // exact from-scratch greedy coloring back.
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 20 + rng.next_below(30);
    Graph g = random_graph(rng, n, 15);
    const Coloring before = greedy_coloring(g);

    std::vector<std::uint32_t> dirty;
    for (int edits = 0; edits < 4; ++edits) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (u == v || g.has_edge(u, v)) continue;
      g.add_edge(u, v);
      dirty.push_back(u);
      dirty.push_back(v);
    }
    EXPECT_EQ(incremental_greedy_coloring(g, before, dirty),
              greedy_coloring(g))
        << "round " << round;
  }
}

TEST(IncrementalGreedy, ValidatesItsInputs) {
  const Graph g(4);
  EXPECT_THROW(incremental_greedy_coloring(g, Coloring(3, 0), {}),
               std::invalid_argument);
  EXPECT_THROW(incremental_greedy_coloring(g, Coloring(4, 0), {9}),
               std::invalid_argument);
}

}  // namespace
}  // namespace latticesched

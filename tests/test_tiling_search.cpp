// Lattice-tiling search (HNF enumeration) and torus exact-cover search.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "tiling/lattice_tiling_search.hpp"
#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"

namespace latticesched {
namespace {

TEST(LatticeTilingSearch, ChebyshevBallTilesByScaledLattice) {
  const Prototile ball = shapes::chebyshev_ball(2, 1);
  EXPECT_TRUE(tiles_by_sublattice(ball, Sublattice::diagonal({3, 3})));
  EXPECT_FALSE(tiles_by_sublattice(ball, Sublattice::diagonal({9, 1})));
  const auto found = find_lattice_tiling(ball);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->index(), 9);
}

TEST(LatticeTilingSearch, PlusPentominoPerfectCode) {
  const auto found = find_lattice_tiling(shapes::l1_ball(2, 1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->index(), 5);
  // The known perfect-code lattice must be among all solutions.
  const Sublattice code =
      Sublattice::from_vectors({Point{1, 2}, Point{2, -1}});
  bool seen = false;
  for (const Sublattice& m : all_lattice_tilings(shapes::l1_ball(2, 1))) {
    if (m == code) seen = true;
  }
  EXPECT_TRUE(seen);
}

TEST(LatticeTilingSearch, DirectionalAntennaTiles) {
  const auto t = make_lattice_tiling(shapes::directional_antenna());
  ASSERT_TRUE(t.has_value());
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(2, 10), &err)) << err;
}

TEST(LatticeTilingSearch, DominoHasTwoLatticeTilings) {
  // Horizontal domino: index-2 sublattices are diag(2,1), diag(1,2), and
  // the skew [[2,0],[1,1]]-style ones; exactly those with distinct
  // residues qualify.
  const auto all = all_lattice_tilings(shapes::straight_polyomino(2));
  EXPECT_GE(all.size(), 2u);
  for (const Sublattice& m : all) {
    EXPECT_TRUE(tiles_by_sublattice(shapes::straight_polyomino(2), m));
  }
}

TEST(LatticeTilingSearch, GapDuoHasNoLatticeTiling) {
  // {(0,0),(2,0)} admits no sublattice tiling (both cells are congruent
  // modulo every index-2 sublattice containing (2,0)-patterns)...
  EXPECT_FALSE(find_lattice_tiling(Prototile::from_ascii({"X.X"}))
                   .has_value());
}

TEST(LatticeTilingSearch, LimitRespected) {
  const auto limited = all_lattice_tilings(shapes::rectangle(2, 2), 1);
  EXPECT_EQ(limited.size(), 1u);
}

TEST(TorusSearch, FindsGapDuoTiling) {
  // The disconnected {(0,0),(2,0)} tile DOES tile the plane (columns
  // x ≡ 0,1 mod 4 pattern) — only the torus search can find it.
  const Prototile gap = Prototile::from_ascii({"X.X"}, "gap-duo");
  const auto t = search_periodic_tiling({gap});
  ASSERT_TRUE(t.has_value());
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(2, 8), &err)) << err;
}

TEST(TorusSearch, FindsSTetrominoTilingOnExplicitTorus) {
  const auto t = find_tiling_on_torus({shapes::s_tetromino()},
                                      Sublattice::diagonal({4, 4}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->period().index(), 16);
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(2, 8), &err)) << err;
}

TEST(TorusSearch, MixedSZTilingsExist) {
  // Figure 5: tilings mixing S and Z tetrominoes exist.
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto t = find_tiling_on_torus(
      {shapes::s_tetromino(), shapes::z_tetromino()},
      Sublattice::diagonal({4, 4}), cfg);
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->is_respectable());
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(2, 8), &err)) << err;
  // Both prototiles genuinely used.
  bool used_s = false, used_z = false;
  for (const auto& [translate, proto] : t->placements()) {
    (proto == 0 ? used_s : used_z) = true;
  }
  EXPECT_TRUE(used_s);
  EXPECT_TRUE(used_z);
}

TEST(TorusSearch, EnumeratesManyMixedTilings) {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto all = all_tilings_on_torus(
      {shapes::s_tetromino(), shapes::z_tetromino()},
      Sublattice::diagonal({4, 4}), 1000, cfg);
  // Empirically 40 mixed tilings exist on the 4x4 torus.
  EXPECT_EQ(all.size(), 40u);
}

TEST(TorusSearch, RespectsNodeBudget) {
  // A mixed S+Z tiling of the 4x4 torus needs four placements; a
  // one-node budget (per torus) can never complete one.
  TorusSearchConfig cfg;
  cfg.node_limit = 1;
  cfg.require_all_prototiles = true;
  const auto t =
      find_tiling_on_torus({shapes::s_tetromino(), shapes::z_tetromino()},
                           Sublattice::diagonal({4, 4}), cfg);
  EXPECT_FALSE(t.has_value());
}

TEST(TorusSearch, ZeroNodeBudgetIsRejected) {
  // node_limit = 0 used to mean "search nothing"; the validated config
  // now rejects it so a zero budget can never silently report "no
  // tiling" for an exact prototile.
  TorusSearchConfig cfg;
  cfg.node_limit = 0;
  EXPECT_THROW(search_periodic_tiling({shapes::s_tetromino()}, cfg),
               std::invalid_argument);
  EXPECT_THROW(find_tiling_on_torus({shapes::s_tetromino()},
                                    Sublattice::diagonal({2, 2}), cfg),
               std::invalid_argument);
  cfg.node_limit = 1;
  cfg.max_period_cells = 0;
  EXPECT_THROW(search_periodic_tiling({shapes::s_tetromino()}, cfg),
               std::invalid_argument);
}

TEST(TorusSearch, STetrominoTilesTinyTorus) {
  // Surprising but true (and hand-verified): S is a complete residue
  // system modulo 2Z x 2Z, so a single placement tiles the 2x2 torus.
  const auto t = find_tiling_on_torus({shapes::s_tetromino()},
                                      Sublattice::diagonal({2, 2}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->placements().size(), 1u);
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(2, 6), &err)) << err;
}

TEST(TorusSearch, NonExactTileNotFound) {
  // {0,1,3} in a row cannot tile (rows are independent 1-D instances and
  // {0,1,3} does not tile Z); budgeted search must come back empty.
  TorusSearchConfig cfg;
  cfg.max_period_cells = 36;
  cfg.node_limit = 200'000;
  const Prototile t013 = Prototile::from_ascii({"XX.X"}, "013");
  EXPECT_FALSE(search_periodic_tiling({t013}, cfg).has_value());
}

TEST(TorusSearch, DimensionMismatchThrows) {
  EXPECT_THROW(
      find_tiling_on_torus({shapes::s_tetromino()},
                           Sublattice::diagonal({2, 2, 2})),
      std::invalid_argument);
}

TEST(TorusSearch, ThreeDimensionalBlockTiling) {
  // 2x2x2 block tiles the 3-D lattice; search over cubic periods.
  PointVec cells;
  for (std::int64_t x = 0; x < 2; ++x) {
    for (std::int64_t y = 0; y < 2; ++y) {
      for (std::int64_t z = 0; z < 2; ++z) {
        cells.push_back(Point{x, y, z});
      }
    }
  }
  const Prototile block(cells, "block8");
  TorusSearchConfig cfg;
  cfg.max_period_cells = 64;
  const auto t = search_periodic_tiling({block}, cfg);
  ASSERT_TRUE(t.has_value());
  std::string err;
  EXPECT_TRUE(t->verify_window(Box::centered(3, 4), &err)) << err;
}

// Property: every tiling found by either engine passes independent window
// verification (cross-validation of search + Tiling construction).
class SearchedTilingsVerify : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(SearchedTilingsVerify, RandomPolyominoTilingsAreValid) {
  Rng rng(500 + GetParam());
  int found = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Prototile t = test_helpers::random_polyomino(rng, GetParam());
    const auto m = find_lattice_tiling(t);
    if (!m.has_value()) continue;
    ++found;
    const Tiling tiling = Tiling::lattice_tiling(t, *m);
    std::string err;
    EXPECT_TRUE(tiling.verify_window(Box::centered(2, 8), &err))
        << t.to_ascii() << err;
  }
  // Small polyominoes tile often; make sure the sweep exercised something.
  if (GetParam() <= 4) {
    EXPECT_GT(found, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SearchedTilingsVerify,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace latticesched

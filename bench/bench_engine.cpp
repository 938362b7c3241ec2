// Dense-index engine before/after microbenchmarks.
//
// The seed implementations of the four hot paths (torus search, slot
// lookup, collision check, conflict-graph build) are retained behind
// flags/reference entry points precisely so this binary can measure the
// speedup of the dense engine against them on identical workloads.  The
// report section prints the headline ratios (the acceptance targets are
// >= 5x on torus-search nodes/sec and >= 10x on slot_of throughput) and
// the parallel layer's sweep speedup, then records every case —
// ns/op, throughput, speedup — in machine-readable BENCH_engine.json
// (path override: LATTICESCHED_BENCH_JSON) so the perf trajectory is
// tracked across PRs; CI uploads the file as an artifact.  The
// registered google-benchmark cases cover the same comparisons.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/collision.hpp"
#include "core/planner.hpp"
#include "core/tiling_scheduler.hpp"
#include "graph/interference.hpp"
#include "sim/simulator.hpp"
#include "tiling/shapes.hpp"
#include "tiling/torus_search.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// BENCH_engine.json: one record per measured case
// ---------------------------------------------------------------------------

struct BenchRecord {
  std::string name;
  double ns_per_op = 0.0;        // wall time per operation (ns)
  double items_per_second = 0.0; // throughput, when an item count applies
  double speedup = 0.0;          // vs the seed/serial baseline, when paired
  double threads = 0.0;          // parallel cases only
};

std::vector<BenchRecord>& records() {
  static std::vector<BenchRecord> r;
  return r;
}

void write_bench_json() {
  const char* env = std::getenv("LATTICESCHED_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_engine.json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"benchmarks\": [\n";
  const auto& rs = records();
  for (std::size_t i = 0; i < rs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                  "\"items_per_second\": %.1f, \"speedup\": %.3f, "
                  "\"threads\": %.0f}%s\n",
                  rs[i].name.c_str(), rs[i].ns_per_op,
                  rs[i].items_per_second, rs[i].speedup, rs[i].threads,
                  i + 1 < rs.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::printf("\nwrote %zu benchmark records to %s\n", rs.size(),
              path.c_str());
}

// ---------------------------------------------------------------------------
// Shared workloads (identical for both engines)
// ---------------------------------------------------------------------------

std::vector<Prototile> mixed_tetrominoes() {
  return {shapes::s_tetromino(), shapes::z_tetromino()};
}

/// Pure-search workload: 13x13 has no S/Z tiling (169 is not a multiple
/// of 4), so the whole tree is explored with zero result emission — the
/// measured time is backtracking alone, and both engines expand the
/// identical node sequence.
std::uint64_t run_torus_search(bool dense, const Sublattice& period) {
  TorusSearchConfig cfg;
  cfg.use_dense_engine = dense;
  TorusSearchStats stats;
  cfg.stats = &stats;
  const auto found = all_tilings_on_torus(mixed_tetrominoes(), period,
                                          100'000, cfg);
  if (!found.empty()) std::abort();  // workload must stay search-only
  return stats.nodes;
}

TilingSchedule make_schedule() {
  const auto tiling = search_periodic_tiling({shapes::directional_antenna()});
  return TilingSchedule(*tiling);
}

/// The seed's slot_of, reproduced byte for byte in spirit: covering() as
/// a PointMap lookup materializing the Covering (translate included),
/// then a second hash lookup from element to slot.  The library paths
/// have all gone dense, so the seed baseline lives here in the bench.
struct SeedSlotOracle {
  explicit SeedSlotOracle(const TilingSchedule& sched)
      : tiling(&sched.tiling()) {
    for (const Point& rep : tiling->period().coset_representatives()) {
      const Covering c = tiling->covering(rep);
      cell_by_residue.emplace(rep,
                              SeedCell{c.prototile, c.element_index});
    }
    for (std::uint32_t k = 0; k < sched.union_points().size(); ++k) {
      slot_by_element.emplace(sched.union_points()[k], k);
    }
  }

  std::uint32_t slot_of(const Point& p) const {
    const Point rep = tiling->period().reduce(p);
    const SeedCell& cell = cell_by_residue.at(rep);
    const Point& element =
        tiling->prototile(cell.prototile).element(cell.element_index);
    Point translate = p - element;  // seed's Covering materialization
    benchmark::DoNotOptimize(translate);
    return slot_by_element.at(element);
  }

  struct SeedCell {
    std::uint32_t prototile = 0;
    std::uint32_t element_index = 0;
  };
  const Tiling* tiling;
  PointMap<SeedCell> cell_by_residue;
  PointMap<std::uint32_t> slot_by_element;
};

template <typename SlotFn>
std::uint64_t sweep_slots(const PointVec& pts, const SlotFn& slot_fn) {
  std::uint64_t sum = 0;
  for (const Point& p : pts) sum += slot_fn(p);
  return sum;
}

struct CollisionWorkload {
  Deployment deployment;
  SensorSlots slots;
};

CollisionWorkload make_collision_workload() {
  TorusSearchConfig cfg;
  cfg.require_all_prototiles = true;
  const auto tiling = find_tiling_on_torus(
      mixed_tetrominoes(), Sublattice::diagonal({4, 4}), cfg);
  const TilingSchedule sched(*tiling);
  Deployment d = Deployment::from_tiling(*tiling, Box::centered(2, 15));
  SensorSlots slots = assign_slots(sched, d);
  return CollisionWorkload{std::move(d), std::move(slots)};
}

Deployment make_graph_deployment() {
  return Deployment::grid(Box::centered(2, 14), shapes::chebyshev_ball(2, 1));
}

// Hashed conflict-graph builder for comparison: same structure the seed
// used, reproduced here via the public hash fallback (a deployment whose
// hull defeats the grid would take it; we time it directly instead by
// calling the reference collision path on a synthetic check).  To keep
// the comparison honest we rebuild with the exact seed algorithm.
Graph build_conflict_graph_seed(const Deployment& d) {
  Graph g(d.size());
  PointMap<std::vector<std::uint32_t>> covered_by;
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    for (const Point& p : d.coverage_of(i)) {
      covered_by[p].push_back(i);
    }
  }
  for (const auto& [p, ids] : covered_by) {
    for (std::size_t a = 0; a < ids.size(); ++a) {
      for (std::size_t b = a + 1; b < ids.size(); ++b) {
        g.add_edge(ids[a], ids[b]);
      }
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Reproduction report: headline speedups
// ---------------------------------------------------------------------------

template <typename Fn>
double time_best_of(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

void report() {
  bench::section("Dense-index engine vs seed implementations");

  // Torus search: both engines expand the identical node sequence, so the
  // wall-time ratio equals the nodes/sec ratio.
  {
    const Sublattice period = Sublattice::diagonal({13, 13});
    std::uint64_t nodes_dense = 0, nodes_legacy = 0;
    const double t_dense = time_best_of(
        5, [&] { nodes_dense = run_torus_search(true, period); });
    const double t_legacy = time_best_of(
        3, [&] { nodes_legacy = run_torus_search(false, period); });
    std::printf(
        "torus search (S+Z on 13x13, %llu nodes): legacy %.1f Mnodes/s,"
        " dense %.1f Mnodes/s -> %.1fx (target >= 5x)\n",
        static_cast<unsigned long long>(nodes_dense),
        static_cast<double>(nodes_legacy) / t_legacy / 1e6,
        static_cast<double>(nodes_dense) / t_dense / 1e6,
        t_legacy / t_dense);
    if (nodes_dense != nodes_legacy) {
      std::printf("  WARNING: engines disagree (%llu vs %llu nodes)\n",
                  static_cast<unsigned long long>(nodes_dense),
                  static_cast<unsigned long long>(nodes_legacy));
    }
    records().push_back({"torus_search_legacy",
                         t_legacy * 1e9 / static_cast<double>(nodes_legacy),
                         static_cast<double>(nodes_legacy) / t_legacy, 0.0,
                         0.0});
    records().push_back({"torus_search_dense",
                         t_dense * 1e9 / static_cast<double>(nodes_dense),
                         static_cast<double>(nodes_dense) / t_dense,
                         t_legacy / t_dense, 0.0});
  }

  // slot_of: table load vs the seed's covering() + double hash lookup.
  {
    const TilingSchedule sched = make_schedule();
    const SeedSlotOracle seed(sched);
    const PointVec pts = Box::centered(2, 160).points();
    std::uint64_t sum_dense = 0, sum_seed = 0;
    const double t_dense = time_best_of(5, [&] {
      sum_dense = sweep_slots(pts, [&](const Point& p) {
        return sched.slot_of(p);
      });
    });
    const double t_seed = time_best_of(3, [&] {
      sum_seed = sweep_slots(pts, [&](const Point& p) {
        return seed.slot_of(p);
      });
    });
    const double n = static_cast<double>(pts.size());
    std::printf(
        "slot_of (%u-slot schedule, %.0f points): seed %.1f M/s, table"
        " %.1f M/s -> %.1fx throughput (target >= 10x)\n",
        sched.period(), n, n / t_seed / 1e6, n / t_dense / 1e6,
        t_seed / t_dense);
    if (sum_dense != sum_seed) {
      std::printf("  WARNING: slot sums disagree (%llu vs %llu)\n",
                  static_cast<unsigned long long>(sum_dense),
                  static_cast<unsigned long long>(sum_seed));
    }
    records().push_back(
        {"slot_of_seed", t_seed * 1e9 / n, n / t_seed, 0.0, 0.0});
    records().push_back({"slot_of_table", t_dense * 1e9 / n, n / t_dense,
                         t_seed / t_dense, 0.0});
  }

  // Collision check: stamped flat counters vs per-slot hash maps.
  {
    const CollisionWorkload w = make_collision_workload();
    bool free_dense = false, free_ref = false;
    const double t_dense = time_best_of(3, [&] {
      free_dense = check_collision_free(w.deployment, w.slots).collision_free;
    });
    const double t_ref = time_best_of(3, [&] {
      free_ref =
          check_collision_free_reference(w.deployment, w.slots)
              .collision_free;
    });
    std::printf(
        "collision check (%zu sensors, verdict %s/%s): reference %.2fms,"
        " dense %.2fms -> %.1fx\n",
        w.deployment.size(), free_dense ? "free" : "collision",
        free_ref ? "free" : "collision", t_ref * 1e3, t_dense * 1e3,
        t_ref / t_dense);
    records().push_back(
        {"collision_check_reference", t_ref * 1e9, 0.0, 0.0, 0.0});
    records().push_back({"collision_check_dense", t_dense * 1e9, 0.0,
                         t_ref / t_dense, 0.0});
  }

  // Conflict-graph build: CSR inversion on the grid vs hash buckets.
  {
    const Deployment d = make_graph_deployment();
    std::size_t edges_dense = 0, edges_seed = 0;
    const double t_dense = time_best_of(
        3, [&] { edges_dense = build_conflict_graph(d).edge_count(); });
    const double t_seed = time_best_of(
        3, [&] { edges_seed = build_conflict_graph_seed(d).edge_count(); });
    std::printf(
        "conflict graph (%zu sensors, %zu/%zu edges): seed %.2fms, dense"
        " %.2fms -> %.1fx\n",
        d.size(), edges_dense, edges_seed, t_seed * 1e3, t_dense * 1e3,
        t_seed / t_dense);
    records().push_back(
        {"conflict_graph_seed", t_seed * 1e9, 0.0, 0.0, 0.0});
    records().push_back({"conflict_graph_dense", t_dense * 1e9, 0.0,
                         t_seed / t_dense, 0.0});
  }

  bench::section("Parallel execution layer (util/parallel.hpp)");

  // Period-sweep speedup: the F-pentomino is not exact, so the sweep
  // explores EVERY torus up to the budget — the pure fan-out workload of
  // the speculative parallel sweep.  Serial and parallel return the
  // identical verdict (the determinism tests pin the satisfiable case).
  // Acceptance target: > 2x wall time at >= 4 threads; single-core hosts
  // necessarily report ~1x (the thread count is recorded alongside).
  {
    const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}},
                      "F-pentomino");
    TorusSearchConfig cfg;
    cfg.max_period_cells = 200;
    set_parallel_threads(1);
    const double t_serial =
        time_best_of(3, [&] { (void)search_periodic_tiling({f}, cfg); });
    set_parallel_threads(0);  // restore the environment default
    const double threads = static_cast<double>(parallel_threads());
    const double t_parallel =
        time_best_of(3, [&] { (void)search_periodic_tiling({f}, cfg); });
    std::printf(
        "period sweep (F-pentomino, all tori <= 200 cells): serial %.0fms,"
        " %.0f threads %.0fms -> %.2fx (target > 2x at >= 4 threads)\n",
        t_serial * 1e3, threads, t_parallel * 1e3, t_serial / t_parallel);
    records().push_back(
        {"period_sweep_serial", t_serial * 1e9, 0.0, 0.0, 1.0});
    records().push_back({"period_sweep_parallel", t_parallel * 1e9, 0.0,
                         t_serial / t_parallel, threads});
  }

  write_bench_json();
}

// ---------------------------------------------------------------------------
// Registered microbenchmarks (recorded via --benchmark_format=json)
// ---------------------------------------------------------------------------

void BM_TorusSearchDense(benchmark::State& state) {
  // Odd x odd tori are unsatisfiable for S+Z: pure backtracking, and the
  // per-iteration node count is fixed, so time/op tracks nodes/sec.
  const Sublattice period =
      Sublattice::diagonal({state.range(0), state.range(0)});
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    nodes = run_torus_search(true, period);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_TorusSearchDense)->Arg(9)->Arg(11)->Arg(13);

void BM_TorusSearchLegacy(benchmark::State& state) {
  const Sublattice period =
      Sublattice::diagonal({state.range(0), state.range(0)});
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    nodes = run_torus_search(false, period);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_TorusSearchLegacy)->Arg(9)->Arg(11)->Arg(13);

void BM_SlotOfTable(benchmark::State& state) {
  const TilingSchedule sched = make_schedule();
  const PointVec pts = Box::centered(2, 40).points();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_slots(pts, [&](const Point& p) {
      return sched.slot_of(p);
    }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_SlotOfTable);

void BM_SlotOfSeed(benchmark::State& state) {
  const TilingSchedule sched = make_schedule();
  const SeedSlotOracle seed(sched);
  const PointVec pts = Box::centered(2, 40).points();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_slots(pts, [&](const Point& p) {
      return seed.slot_of(p);
    }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_SlotOfSeed);

void BM_CollisionCheckDense(benchmark::State& state) {
  const CollisionWorkload w = make_collision_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_collision_free(w.deployment, w.slots).collision_free);
  }
}
BENCHMARK(BM_CollisionCheckDense);

void BM_CollisionCheckReference(benchmark::State& state) {
  const CollisionWorkload w = make_collision_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_collision_free_reference(w.deployment, w.slots)
            .collision_free);
  }
}
BENCHMARK(BM_CollisionCheckReference);

void BM_ConflictGraphDense(benchmark::State& state) {
  const Deployment d = make_graph_deployment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_conflict_graph(d).edge_count());
  }
}
BENCHMARK(BM_ConflictGraphDense);

void BM_ConflictGraphSeed(benchmark::State& state) {
  const Deployment d = make_graph_deployment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_conflict_graph_seed(d).edge_count());
  }
}
BENCHMARK(BM_ConflictGraphSeed);

void BM_SimulatorConstruction(benchmark::State& state) {
  const Deployment d = make_graph_deployment();
  SimConfig cfg;
  for (auto _ : state) {
    SlotSimulator sim(d, cfg);
    benchmark::DoNotOptimize(sim.listeners().values.size());
  }
}
BENCHMARK(BM_SimulatorConstruction);

// Exhaustive period sweep (non-exact F-pentomino) at a given thread
// count; arg 1 = threads (0 = environment default).
void BM_PeriodSweep(benchmark::State& state) {
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}},
                    "F-pentomino");
  TorusSearchConfig cfg;
  cfg.max_period_cells = 150;
  set_parallel_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search_periodic_tiling({f}, cfg));
  }
  set_parallel_threads(0);
}
BENCHMARK(BM_PeriodSweep)->Arg(1)->Arg(0);

void BM_PlanAll(benchmark::State& state) {
  const Deployment d =
      Deployment::grid(Box::cube(2, 0, 11), shapes::chebyshev_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  request.sa.max_iters = 10'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlannerRegistry::global().plan_all(request));
  }
}
BENCHMARK(BM_PlanAll);

}  // namespace
}  // namespace latticesched

REPRODUCTION_MAIN(latticesched::report)

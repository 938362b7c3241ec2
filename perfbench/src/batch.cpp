// The batch workloads: `sweep` (PlanService over the whole registry),
// `fleet` (the same batch through the process fleet) and `million` (one
// 1M-sensor region-sharded item).  Their traced runs replay the batch
// stage by stage on one thread, with a span around every library call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/collision.hpp"
#include "core/multichannel.hpp"
#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/region_shard.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/coordinator.hpp"
#include "graph/interference.hpp"
#include "perfbench.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

using namespace latticesched;

const char* const kBackends[] = {"tiling", "greedy",        "welsh-powell",
                                 "dsatur", "annealing",     "region-greedy",
                                 "tdma",   "mobile"};

/// What the output checks compare: the fields a report reader trusts.
struct Row {
  std::string where;  ///< "label step backend", for failure messages
  std::string backend;
  bool ok = false;
  std::uint32_t period = 0;
  std::uint32_t effective_period = 0;
  std::uint32_t lower_bound = 0;
  double gap = 0.0;
  bool collision_free = false;
  bool verified = false;

  bool same_plan(const Row& o) const {
    return backend == o.backend && ok == o.ok && period == o.period &&
           effective_period == o.effective_period &&
           lower_bound == o.lower_bound &&
           // Reports carry the gap with 6 significant digits (%.6g), so
           // rows that crossed a JSON report compare to that precision.
           std::fabs(gap - o.gap) <= 1e-5 * std::max(1.0, std::fabs(o.gap)) &&
           collision_free == o.collision_free && verified == o.verified;
  }
  bool clean() const { return ok && verified && collision_free; }
};

/// The row of an item whose scenario failed to build: never clean.
Row unbuilt_row(std::string where) {
  Row row;
  row.where = std::move(where);
  return row;
}

Row to_check_row(const PlanResult& r, const std::string& where) {
  return Row{where + " " + r.backend, r.backend, r.ok, r.slots.period,
             r.effective_period(), r.lower_bound, r.optimality_gap,
             r.collision_free, r.verified};
}

/// Every plan row of a batch report, dynamic steps included, in order.
/// An item that failed to build contributes one unplanned row.
std::vector<Row> flatten(const BatchReport& report) {
  std::vector<Row> rows;
  for (const BatchItemReport& item : report.items) {
    if (!item.built) {
      rows.push_back(unbuilt_row(item.scenario + " not built: " + item.error));
      continue;
    }
    if (item.steps.empty()) {
      for (const PlanResult& r : item.results) {
        rows.push_back(to_check_row(r, item.label + " step 0"));
      }
    }
    for (const BatchStepReport& step : item.steps) {
      for (const PlanResult& r : step.results) {
        rows.push_back(
            to_check_row(r, item.label + " step " + std::to_string(step.step)));
      }
    }
  }
  return rows;
}

/// Planner steps of a report: one PlanSession::replan per static item,
/// one per step of a dynamic item.
std::size_t replans_in(const BatchReport& report) {
  std::size_t n = 0;
  for (const BatchItemReport& item : report.items) {
    n += item.steps.empty() ? 1 : item.steps.size();
  }
  return n;
}

/// Checks every row of `got` against the reference rows: the same plan
/// (period, bound, gap, verdict) and a verified collision-free row.
/// Returns the number of verified rows.
std::size_t check_rows(const std::vector<Row>& got, const std::vector<Row>& ref,
                       const char* what, Outcome& out) {
  std::size_t verified = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (i >= got.size()) {
      out.check(false, std::string(what) + ": missing row " + ref[i].where);
      continue;
    }
    const bool ok = got[i].same_plan(ref[i]) && got[i].clean();
    out.check(ok, std::string(what) + ": row differs from the reference: " +
                      got[i].where);
    if (got[i].verified) ++verified;
  }
  for (std::size_t i = ref.size(); i < got.size(); ++i) {
    out.check(false, std::string(what) + ": extra row " + got[i].where);
  }
  return verified;
}

ScenarioParams sweep_params(std::uint64_t seed) {
  ScenarioParams params;
  params.n = 24;
  params.seed = seed;
  return params;
}

/// The reference the sweep and fleet rows must equal: the same batch on
/// a fresh service with the parallel layer at one thread.  Its own rows
/// must be verified and collision-free.
struct Reference {
  BatchReport report;
  std::vector<Row> rows;
  std::size_t cache_entries = 0;  ///< distinct tiling-cache keys of the batch
  double wall_ms = 0.0;
};

Reference reference_run(const std::vector<BatchItem>& items, Outcome& out) {
  Reference ref;
  const std::size_t threads = parallel_threads();
  set_parallel_threads(1);
  PlanService service;
  const Clock::time_point t0 = Clock::now();
  ref.report = service.run(items);
  ref.wall_ms = ms_since(t0);
  set_parallel_threads(threads);
  ref.cache_entries = service.tiling_cache().stats().entries;
  ref.rows = flatten(ref.report);
  for (const Row& row : ref.rows) {
    out.check(row.clean(), "reference row not verified collision-free: " +
                               row.where);
  }
  return ref;
}

// --------------------------------------------------------------------------
// Stage-by-stage replay (traced runs)
// --------------------------------------------------------------------------

struct ReplayTotals {
  std::size_t sensors = 0;
  std::size_t rows = 0;
  std::size_t graph_builds = 0;
  std::size_t graph_edges = 0;
  double search_ms = 0.0;  ///< cold-minus-warm planner time on cache misses
  RegionShardStats region;
  std::size_t region_sensors = 0;
  std::size_t report_bytes = 0;
};

/// The backends an item plans with, as PlanSession selects them.
std::vector<const Planner*> select_backends(const BatchItem& item,
                                            const PlanRequest& probe) {
  const PlannerRegistry& registry = PlannerRegistry::global();
  std::vector<const Planner*> selected;
  if (item.backends.empty()) {
    for (const std::string& name : registry.names()) {
      const Planner* p = registry.find(name);
      if (p->in_default_set() && p->supports(probe)) selected.push_back(p);
    }
  } else {
    for (const std::string& name : item.backends) {
      selected.push_back(registry.find(name));
    }
  }
  return selected;
}

/// Plans one deployment the way one PlanSession::replan would, but cold
/// and one library call at a time: conflict graph, each backend with
/// verification off, then the collision check of each result, then (for
/// the region-sharded backend) the region planner on its own.
void replay_step(const BatchItem& item, const ScenarioInstance& inst,
                 const Deployment& d, std::uint32_t channels,
                 TilingCache& cache, const std::string& where, Trace* trace,
                 ReplayTotals& totals, std::vector<Row>& rows) {
  PlanRequest req;
  req.deployment = &d;
  req.tiling = inst.tiling.has_value() ? &*inst.tiling : nullptr;
  req.lattice = inst.lattice.has_value() ? &*inst.lattice : nullptr;
  req.search = item.search;
  req.sa = item.sa;
  req.verify = false;
  req.channels = channels;
  req.tiling_cache = &cache;
  req.regions = std::max<std::size_t>(item.regions, 1);
  req.region_halo = item.region_halo;
  req.tune_trials = item.tune_trials;
  req.tune_budget_ms = item.tune_budget_ms;
  req.tune_family = item.query.scenario;
  const std::vector<const Planner*> selected = select_backends(item, req);

  std::optional<Graph> graph;
  const bool wants_graph = std::any_of(
      selected.begin(), selected.end(),
      [](const Planner* p) { return p->wants_conflict_graph(); });
  if (wants_graph) {
    Scope span(trace, "graph.build");
    graph.emplace(build_conflict_graph(d));
    req.conflict_graph = &*graph;
  }
  if (graph.has_value()) {
    ++totals.graph_builds;
    totals.graph_edges += graph->edge_count();
  }

  bool region_backend = false;
  for (const Planner* planner : selected) {
    const std::string name = planner->name();
    region_backend = region_backend || planner->wants_region_shard();
    const std::uint64_t misses = cache.stats().misses;
    Clock::time_point t0 = Clock::now();
    PlanResult result;
    {
      Scope span(trace, "planner." + name);
      result = planner->plan(req);
    }
    const double cold_ms = ms_since(t0);
    if (cache.stats().misses > misses) {
      // The call ran a torus search.  Repeating it against the now-warm
      // cache times everything but the search.
      t0 = Clock::now();
      {
        Scope span(trace, "tiling.warm_repeat");
        (void)planner->plan(req);
      }
      totals.search_ms += std::max(0.0, cold_ms - ms_since(t0));
    }
    if (result.ok) {
      Scope span(trace, "verify");
      const CollisionReport report =
          result.channel_slots.has_value()
              ? check_collision_free_multichannel(d, *result.channel_slots)
              : check_collision_free(d, result.slots);
      result.collision_free = report.collision_free;
      result.verified = true;
    }
    rows.push_back(to_check_row(result, where));
    ++totals.rows;
  }

  if (region_backend) {
    Scope span(trace, "region.plan");
    (void)plan_regions(d, req.regions,
                       std::max(item.region_halo, interference_reach(d)),
                       nullptr, &totals.region);
    totals.region_sensors += d.size();
  }
}

/// One pass over the batch: scenario build, then every plan step of every
/// item (dynamic items apply their trace deltas through a PlanSession),
/// then the JSON report round-trip of `report`.  Returns the pass wall.
double replay_batch(const std::vector<BatchItem>& items,
                    const BatchReport& report, Trace* trace,
                    ReplayTotals& totals, std::vector<Row>& rows) {
  const Clock::time_point t0 = Clock::now();
  Scope root(trace, "pass");
  TilingCache cache;
  for (const BatchItem& item : items) {
    std::optional<ScenarioInstance> inst;
    try {
      Scope span(trace, "scenario.build");
      inst.emplace(ScenarioRegistry::global().build(
          item.query.scenario, item.query.params, &cache));
    } catch (const std::exception& e) {
      rows.push_back(
          unbuilt_row(item.query.scenario + " not built: " + e.what()));
      continue;
    }
    totals.sensors += inst->deployment.size();
    MutationTrace steps = std::move(inst->trace);
    if (!item.trace_script.empty()) {
      steps = parse_mutation_script(item.trace_script);
    }
    SessionConfig config;
    config.channels = inst->channels;
    PlanSession session(std::move(inst->deployment), config);
    replay_step(item, *inst, session.deployment(), session.channels(), cache,
                inst->label + " step 0", trace, totals, rows);
    for (const MutationStep& step : steps.steps) {
      {
        Scope span(trace, "session.apply");
        session.apply(step.delta);
      }
      replay_step(item, *inst, session.deployment(), session.channels(), cache,
                  inst->label + " step " + std::to_string(step.at), trace,
                  totals, rows);
    }
  }
  std::string json;
  {
    Scope span(trace, "report.encode");
    json = batch_report_to_json(report);
  }
  {
    Scope span(trace, "report.parse");
    (void)parse_batch_report_json(json);
  }
  totals.report_bytes = json.size();
  return ms_since(t0);
}

/// Runs the replay untraced and traced (time_passes), checks every pass's
/// rows against the reference (a warm session plan must equal the cold
/// plan) and fills the per-layer metrics the replay measures.
void replay_and_report(const Options& opts, const std::vector<BatchItem>& items,
                       const BatchReport& report, const std::vector<Row>& ref,
                       double batch_wall_ms, Outcome& out) {
  std::vector<ReplayTotals> traced_totals;
  PassTimes passes = time_passes([&](Trace* trace) {
    ReplayTotals totals;
    std::vector<Row> rows;
    const double ms = replay_batch(items, report, trace, totals, rows);
    check_rows(rows, ref, "replay", out);
    if (trace != nullptr) traced_totals.push_back(totals);
    return ms;
  });
  const ReplayTotals& totals = traced_totals[passes.kept];
  const double untraced_ms = passes.untraced_ms;
  const double traced_ms = passes.traced_ms;

  const std::vector<Span>& spans = passes.trace.spans();
  const std::map<std::string, double> self = self_ms_by_name(spans);
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double serial_work = 0.0;
  for (const char* layer : {"scenario.build", "graph.build", "verify",
                            "session.apply"}) {
    serial_work += self_of(layer);
  }
  for (const char* backend : kBackends) {
    const double ms = self_of(std::string("planner.") + backend);
    out.set(std::string("planner.") + backend + ".ms", ms);
    serial_work += ms;
  }
  out.set("scenario.build_ms", self_of("scenario.build"));
  out.set("scenario.sensors", static_cast<double>(totals.sensors));
  out.set("graph.build_ms", self_of("graph.build"));
  out.set("graph.builds", static_cast<double>(totals.graph_builds));
  out.set("graph.edges", static_cast<double>(totals.graph_edges));
  out.set("planner.rows", static_cast<double>(totals.rows));
  out.set("tiling.search_ms", totals.search_ms);
  out.set("verify.ms", self_of("verify"));
  out.set("report.encode_ms", self_of("report.encode"));
  out.set("report.parse_ms", self_of("report.parse"));
  out.set("report.bytes", static_cast<double>(totals.report_bytes));
  out.set("region.plan_ms", self_of("region.plan"));
  out.set("region.seam_sensors",
          static_cast<double>(totals.region.seam_sensors));
  out.set("region.stitch_recolored",
          static_cast<double>(totals.region.stitch_recolored));
  if (totals.region_sensors > 0) {
    out.set("region.stitch_kept_frac",
            1.0 - static_cast<double>(totals.region.stitch_recolored) /
                      static_cast<double>(totals.region_sensors));
  }
  const std::map<std::string, std::vector<double>> durations =
      durations_ms_by_name(spans);
  const auto apply = durations.find("session.apply");
  if (apply != durations.end()) {
    out.set("session.apply_ms", median(apply->second));
  }
  out.set("service.serial_work_ms", serial_work);
  out.set("service.parallel_efficiency",
          serial_work /
              (batch_wall_ms * static_cast<double>(parallel_threads())));
  set_trace_fracs(out, spans, "pass", untraced_ms, traced_ms);
  std::printf("replay: untraced %.1f ms, traced %.1f ms, serial work %.1f ms "
              "vs batch wall %.1f ms x %zu thread(s)\n",
              untraced_ms, traced_ms, serial_work, batch_wall_ms,
              parallel_threads());
  dump_trace(opts, spans);
}

/// End-to-end metrics of a batch workload: one timed operation is one
/// batch call, which is both the write and the read verb.
void set_batch_metrics(Outcome& out, const latticesched::SampleSet& setup_ms,
                       const latticesched::SampleSet& wall_ms,
                       const std::vector<double>& rows_per_s,
                       const std::vector<double>& replans_per_s) {
  std::printf("batch walls in run order (ms):");
  for (double ms : wall_ms.samples()) std::printf(" %.1f", ms);
  std::printf("\n");
  const Tail setup = summarize(setup_ms);
  const Tail wall = summarize(wall_ms);
  print_tail("setup", setup, "ms");
  print_tail("batch call", wall, "ms");
  out.set("setup_s", setup.p50 / 1000.0);
  out.set("plans_per_s", median(rows_per_s));
  out.set("replans_per_s", median(replans_per_s));
  out.set("plan_s", wall.p50 / 1000.0);
  out.set("replan_p50_ms", wall.p50);
  out.set("delta_p50_ms", wall.p50);
  out.set("peak_rss_mb",
          static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
}

/// Set-up samples per timed batch.  Constructing a service or a
/// coordinator takes well under a microsecond, so each sample times
/// kSetupBatch back-to-back set-ups and records their mean.
constexpr int kSetupSamples = 16;
constexpr int kSetupBatch = 64;

template <typename SetUp>
void time_setup(latticesched::SampleSet& setup_ms, SetUp&& set_up) {
  for (int s = 0; s < kSetupSamples; ++s) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kSetupBatch; ++k) set_up();
    setup_ms.add(ms_since(t0) / kSetupBatch);
  }
}

struct SweepLoop {
  latticesched::SampleSet setup_ms, wall_ms;
  std::vector<double> rows_per_s, replans_per_s;
  std::vector<double> hits, misses, entries, duplicates;
};

/// Timed in-process batches, each on a fresh service (cold caches), until
/// `seconds` have passed (at least one batch).
SweepLoop sweep_loop(const ScenarioParams& params, const Reference& ref,
                     double seconds, Outcome& out) {
  SweepLoop loop;
  const Clock::time_point deadline = deadline_after(seconds);
  do {
    std::optional<PlanService> service;
    std::vector<BatchItem> batch;
    time_setup(loop.setup_ms, [&] {
      service.emplace();
      batch = service->registry_batch(params);
    });
    const Clock::time_point t0 = Clock::now();
    const BatchReport report = service->run(batch);
    const double wall = ms_since(t0);
    loop.wall_ms.add(wall);
    const std::size_t verified =
        check_rows(flatten(report), ref.rows, "sweep", out);
    loop.rows_per_s.push_back(static_cast<double>(verified) * 1000.0 / wall);
    loop.replans_per_s.push_back(static_cast<double>(replans_in(report)) *
                                 1000.0 / wall);
    const TilingCache::Stats stats = service->tiling_cache().stats();
    loop.hits.push_back(static_cast<double>(stats.hits));
    loop.misses.push_back(static_cast<double>(stats.misses));
    loop.entries.push_back(static_cast<double>(stats.entries));
    loop.duplicates.push_back(static_cast<double>(stats.misses) -
                              static_cast<double>(stats.entries));
  } while (Clock::now() < deadline);
  return loop;
}

void set_cache_metrics(Outcome& out, const std::vector<double>& hits,
                       const std::vector<double>& misses,
                       const std::vector<double>& entries,
                       const std::vector<double>& duplicates) {
  out.set("tiling_cache.hits", median(hits));
  out.set("tiling_cache.misses", median(misses));
  out.set("tiling_cache.entries", median(entries));
  out.set("tiling_cache.duplicate_misses",
          *std::max_element(duplicates.begin(), duplicates.end()));
  std::printf("tiling_cache.duplicate_misses per batch (misses - entries):");
  for (double d : duplicates) std::printf(" %.0f", d);
  std::printf("\n");
}

}  // namespace

void run_sweep(const Options& opts, Outcome& out) {
  const ScenarioParams params = sweep_params(opts.seed);
  const std::vector<BatchItem> items = PlanService().registry_batch(params);
  const Reference ref = reference_run(items, out);
  std::printf("sweep: %zu items, %zu rows; 1-thread reference %.1f ms\n",
              items.size(), ref.rows.size(), ref.wall_ms);

  const SweepLoop loop = sweep_loop(
      params, ref, opts.trace ? opts.seconds / 2 : opts.seconds, out);
  if (!opts.trace) {
    set_batch_metrics(out, loop.setup_ms, loop.wall_ms, loop.rows_per_s,
                      loop.replans_per_s);
    return;
  }
  set_cache_metrics(out, loop.hits, loop.misses, loop.entries, loop.duplicates);
  replay_and_report(opts, items, ref.report, ref.rows,
                    loop.wall_ms.percentile(50.0), out);
}

void run_million(const Options& opts, Outcome& out) {
  BatchItem item;
  item.query.scenario = "grid-large";
  item.query.params.n = 1000000;
  item.query.params.radius = 1;
  item.backends = {"region-greedy"};
  item.regions = 64;
  item.verify = true;
  const std::vector<BatchItem> items{item};

  latticesched::SampleSet setup_ms, wall_ms;
  std::vector<double> rows_per_s, replans_per_s;
  BatchReport last;
  const Clock::time_point deadline =
      deadline_after(opts.trace ? 0.0 : opts.seconds);
  do {
    std::optional<PlanService> service;
    time_setup(setup_ms, [&] { service.emplace(); });
    const Clock::time_point t0 = Clock::now();
    last = service->run(items);
    const double wall = ms_since(t0);
    wall_ms.add(wall);
    std::size_t verified = 0;
    for (const Row& row : flatten(last)) {
      const bool ok = row.clean() && row.effective_period == 9 &&
                      row.lower_bound == 9;
      out.check(ok, "million: not a verified period-9 plan: " + row.where);
      verified += row.verified ? 1 : 0;
    }
    rows_per_s.push_back(static_cast<double>(verified) * 1000.0 / wall);
    replans_per_s.push_back(static_cast<double>(replans_in(last)) * 1000.0 /
                            wall);
  } while (Clock::now() < deadline);
  std::printf("million: %zu plan(s)\n", wall_ms.count());

  if (!opts.trace) {
    set_batch_metrics(out, setup_ms, wall_ms, rows_per_s, replans_per_s);
    return;
  }
  replay_and_report(opts, items, last, flatten(last), wall_ms.percentile(50.0),
                    out);
}

void run_fleet(const Options& opts, Outcome& out) {
  const ScenarioParams params = sweep_params(opts.seed);
  const std::vector<BatchItem> items = PlanService().registry_batch(params);
  const Reference ref = reference_run(items, out);
  std::printf("fleet: %zu items, %zu rows; 1-thread reference %.1f ms\n",
              items.size(), ref.rows.size(), ref.wall_ms);

  dist::CoordinatorConfig config;
  config.workers = 2;
  config.strategy = dist::ShardStrategy::kBlock;
  config.worker_exe = PERFBENCH_CLI_PATH;

  latticesched::SampleSet setup_ms, wall_ms;
  std::vector<double> rows_per_s, replans_per_s, wire_bytes;
  std::vector<double> hits, misses, entries, duplicates;
  std::uint64_t failures = 0, timeouts = 0, respawns = 0;
  const auto fleet_batch = [&](Trace* trace) {
    std::optional<dist::ShardCoordinator> coordinator;
    time_setup(setup_ms, [&] { coordinator.emplace(config); });
    const std::uint64_t io0 = io_bytes();
    const Clock::time_point t0 = Clock::now();
    BatchReport report;
    {
      Scope span(trace, "dist.run");
      report = coordinator->run(items);
    }
    const double wall = ms_since(t0);
    wire_bytes.push_back(static_cast<double>(io_bytes() - io0));
    wall_ms.add(wall);
    const std::size_t verified =
        check_rows(flatten(report), ref.rows, "fleet", out);
    rows_per_s.push_back(static_cast<double>(verified) * 1000.0 / wall);
    replans_per_s.push_back(static_cast<double>(replans_in(report)) * 1000.0 /
                            wall);
    hits.push_back(static_cast<double>(report.cache_hits));
    misses.push_back(static_cast<double>(report.cache_misses));
    entries.push_back(static_cast<double>(ref.cache_entries));
    duplicates.push_back(static_cast<double>(report.cache_misses) -
                         static_cast<double>(ref.cache_entries));
    failures += report.worker_failures;
    timeouts += report.worker_timeouts;
    for (const dist::WorkerCacheStats& w : coordinator->worker_stats()) {
      respawns += w.respawns;
    }
    return report;
  };

  const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Clock::time_point deadline = deadline_after(loop_seconds);
  BatchReport last;
  do {
    last = fleet_batch(nullptr);
  } while (Clock::now() < deadline);
  std::printf("fleet: %zu coordinator run(s)\n", wall_ms.count());

  if (!opts.trace) {
    set_batch_metrics(out, setup_ms, wall_ms, rows_per_s, replans_per_s);
    return;
  }

  // Base of dist.speedup_vs_inprocess: the sweep workload (in-process,
  // default threads) at the same seed, measured in this run.
  const SweepLoop base = sweep_loop(params, ref, opts.seconds / 2, out);
  const double base_rows_per_s = median(base.rows_per_s);
  const double fleet_rows_per_s = median(rows_per_s);
  out.set("dist.run_ms", wall_ms.percentile(50.0));
  out.set("dist.base_plans_per_s", base_rows_per_s);
  out.set("dist.speedup_vs_inprocess", fleet_rows_per_s / base_rows_per_s);
  out.set("dist.wire_bytes", median(wire_bytes));
  out.set("dist.worker_failures", static_cast<double>(failures));
  out.set("dist.worker_timeouts", static_cast<double>(timeouts));
  out.set("dist.respawns", static_cast<double>(respawns));
  out.set("planner.rows", static_cast<double>(ref.rows.size()));
  std::size_t sensors = 0;
  for (const BatchItemReport& item : last.items) sensors += item.sensors;
  out.set("scenario.sensors", static_cast<double>(sensors));
  set_cache_metrics(out, hits, misses, entries, duplicates);
  std::printf("dist.speedup_vs_inprocess = %.3f (fleet %.2f rows/s over "
              "in-process sweep %.2f rows/s, seed %llu)\n",
              fleet_rows_per_s / base_rows_per_s, fleet_rows_per_s,
              base_rows_per_s, static_cast<unsigned long long>(opts.seed));

  // Traced and untraced passes over one coordinator run plus the JSON
  // round-trip of its merged report.
  const auto pass = [&](Trace* trace) {
    const Clock::time_point t0 = Clock::now();
    Scope root(trace, "pass");
    const BatchReport report = fleet_batch(trace);
    std::string json;
    {
      Scope span(trace, "report.encode");
      json = batch_report_to_json(report);
    }
    {
      Scope span(trace, "report.parse");
      (void)parse_batch_report_json(json);
    }
    out.set("report.bytes", static_cast<double>(json.size()));
    return ms_since(t0);
  };
  const PassTimes passes = time_passes(pass);
  const std::map<std::string, double> self =
      self_ms_by_name(passes.trace.spans());
  out.set("report.encode_ms", self.at("report.encode"));
  out.set("report.parse_ms", self.at("report.parse"));
  set_trace_fracs(out, passes.trace.spans(), "pass", passes.untraced_ms,
                  passes.traced_ms);
  dump_trace(opts, passes.trace.spans());
}

}  // namespace perfbench

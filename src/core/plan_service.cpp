#include "core/plan_service.hpp"

#include <chrono>
#include <stdexcept>

#include "core/plan_session.hpp"
#include "util/parallel.hpp"

namespace latticesched {

bool BatchItemReport::all_ok() const {
  if (!built) return false;
  const auto clean = [](const std::vector<PlanResult>& rs) {
    for (const PlanResult& r : rs) {
      if (!r.ok || (r.verified && !r.collision_free)) return false;
    }
    return true;
  };
  if (!steps.empty()) {
    for (const BatchStepReport& step : steps) {
      if (!clean(step.results)) return false;
    }
    return true;
  }
  return clean(results);
}

bool BatchReport::all_ok() const {
  for (const BatchItemReport& item : items) {
    if (!item.all_ok()) return false;
  }
  return true;
}

PlanService::PlanService(const PlannerRegistry* planners,
                         const ScenarioRegistry* scenarios)
    : planners_(planners != nullptr ? planners : &PlannerRegistry::global()),
      scenarios_(scenarios != nullptr ? scenarios
                                      : &ScenarioRegistry::global()) {}

BatchReport PlanService::run(const std::vector<BatchItem>& items) {
  // Fail fast on unknown backend names so a typo cannot surface as a
  // mid-batch exception from a pool worker.
  for (const BatchItem& item : items) {
    for (const std::string& name : item.backends) {
      if (planners_->find(name) == nullptr) {
        throw std::invalid_argument("PlanService: unknown backend '" + name +
                                    "'");
      }
    }
  }

  const TilingCache::Stats before = cache_.stats();
  const auto t0 = std::chrono::steady_clock::now();

  BatchReport report;
  report.items.resize(items.size());
  // Each item's session counters, merged in item order after the fan-out.
  std::vector<PlanCounters> item_counters(items.size());
  // Item fan-out; each item's own plan_all fan-out degrades to serial
  // inside this region (the pool never nests), so the parallelism grain
  // is one scenario per worker.
  parallel_for(0, items.size(), [&](std::size_t i) {
    const BatchItem& item = items[i];
    BatchItemReport& out = report.items[i];
    out.scenario = item.query.scenario;
    try {
      ScenarioInstance instance =
          scenarios_->build(item.query.scenario, item.query.params, &cache_);
      out.label = instance.label;
      out.sensors = instance.deployment.size();
      out.channels = instance.channels;
      out.built = true;

      // An explicit script overrides the scenario's generated trace.
      MutationTrace trace = std::move(instance.trace);
      if (!item.trace_script.empty()) {
        trace = parse_mutation_script(item.trace_script);
      }

      // Every item — static or dynamic — runs through one PlanSession;
      // a static item is simply a zero-delta session, so the two paths
      // cannot drift apart.
      SessionConfig config = session_config(item);
      config.channels = instance.channels;
      if (instance.lattice.has_value()) config.lattice = &*instance.lattice;
      if (instance.tiling.has_value()) config.tiling = &*instance.tiling;
      PlanSession session(std::move(instance.deployment), config);
      if (trace.empty()) {
        out.results = session.replan();
      } else {
        // Dynamic item: replay the trace; every step after the first
        // replans incrementally.
        out.steps.push_back(BatchStepReport{
            0, session.deployment().size(), session.replan()});
        for (const MutationStep& step : trace.steps) {
          session.apply(step.delta);
          out.steps.push_back(BatchStepReport{
              step.at, session.deployment().size(), session.replan()});
        }
        out.results = out.steps.back().results;
      }
      item_counters[i] = session.stats();
    } catch (const std::exception& e) {
      out.built = false;
      out.error = e.what();
      out.results.clear();
      out.steps.clear();
    }
  });

  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  report += counters_between(before, cache_.stats());
  for (const PlanCounters& counters : item_counters) report += counters;
  return report;
}

SessionConfig PlanService::session_config(const BatchItem& item) {
  SessionConfig config;
  config.backends = item.backends;
  config.search = item.search;
  config.sa = item.sa;
  config.verify = item.verify;
  config.regions = item.regions;
  config.region_halo = item.region_halo;
  config.tiling_cache = &cache_;
  config.planners = planners_;
  return config;
}

std::vector<BatchItem> PlanService::registry_batch(
    const ScenarioParams& params,
    const std::vector<std::string>& backends) const {
  std::vector<BatchItem> items;
  for (const std::string& name : scenarios_->names()) {
    BatchItem item;
    item.query = ScenarioQuery{name, params};
    item.backends = backends;
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<BatchItem> PlanService::items_for(
    const std::vector<ScenarioQuery>& queries,
    const std::vector<std::string>& backends) {
  std::vector<BatchItem> items;
  items.reserve(queries.size());
  for (const ScenarioQuery& q : queries) {
    BatchItem item;
    item.query = q;
    item.backends = backends;
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace latticesched

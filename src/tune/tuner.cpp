#include "tune/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "core/planner.hpp"
#include "graph/interference.hpp"
#include "util/persist.hpp"
#include "util/rng.hpp"

namespace latticesched::tune {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Deterministic work proxy of a measured trial — the effort axis of the
/// cost order.  Wall time would rank identically-shaped runs differently
/// across machines and loads, so each delegate gets a machine-independent
/// proxy instead: torus backends report search nodes (each torus is
/// searched serially, so the count is exact), annealing reports its
/// iteration budget, and the graph/TDMA backends — whose cost is linear
/// in the input — report the deployment size.
double work_proxy(const TunedConfig& config, const PlanRequest& trial,
                  const TorusSearchStats& stats) {
  if (config.backend == "tiling" || config.backend == "mobile") {
    return static_cast<double>(stats.nodes);
  }
  if (config.backend == "annealing") {
    return static_cast<double>(trial.sa.max_iters) *
           static_cast<double>(std::max<std::uint64_t>(1, trial.sa.restarts));
  }
  return trial.deployment ? static_cast<double>(trial.deployment->size())
                          : 0.0;
}

/// The deterministic cost order: a plan that worked beats one that
/// failed; then fewer slots; then less work; ties keep the incumbent
/// (earlier candidate), so the default config only loses to a strict
/// improvement.
bool strictly_better(const TrialOutcome& challenger,
                     const TrialOutcome& incumbent) {
  if (challenger.ok != incumbent.ok) return challenger.ok;
  if (!challenger.ok) return false;
  if (challenger.effective_period != incumbent.effective_period) {
    return challenger.effective_period < incumbent.effective_period;
  }
  return challenger.work < incumbent.work;
}

}  // namespace

Fingerprint fingerprint_of(const PlanRequest& request) {
  if (request.deployment == nullptr) {
    throw std::invalid_argument("fingerprint_of: null deployment");
  }
  const Deployment& d = *request.deployment;
  Fingerprint fp;
  fp.n = static_cast<double>(d.size());
  fp.radius = static_cast<double>(interference_reach(d));

  std::size_t dim = 0;
  double volume = 1.0;
  if (d.size() > 0) {
    dim = d.position(0).dim();
    for (std::size_t axis = 0; axis < dim; ++axis) {
      std::int64_t lo = d.position(0)[axis];
      std::int64_t hi = lo;
      for (std::size_t i = 1; i < d.size(); ++i) {
        lo = std::min(lo, d.position(i)[axis]);
        hi = std::max(hi, d.position(i)[axis]);
      }
      volume *= static_cast<double>(hi - lo + 1);
    }
    fp.density = volume > 0.0 ? fp.n / volume : 0.0;
  }

  if (!request.tune_family.empty()) {
    fp.family = request.tune_family;
  } else {
    fp.family = "d" + std::to_string(dim) + "c" +
                std::to_string(request.channels) + "p" +
                std::to_string(d.prototiles().size());
  }
  return fp;
}

Tuner::Tuner(const PlannerRegistry* registry, TuneCache* cache)
    : registry_(registry), cache_(cache) {
  if (registry_ == nullptr || cache_ == nullptr) {
    throw std::invalid_argument("Tuner: null registry or cache");
  }
}

TuneOutcome Tuner::search(const PlanRequest& request,
                          const TuneOptions& options) const {
  const Clock::time_point start = Clock::now();
  const Fingerprint fp = fingerprint_of(request);
  cache_->note_search();

  // Delegate pool: every ordinary backend that supports the request, in
  // registration order (tiling first — its default is THE default).
  std::vector<std::string> delegates;
  for (const std::string& name : registry_->names()) {
    const Planner* p = registry_->find(name);
    if (p == nullptr || !p->in_default_set() || !p->supports(request)) {
      continue;
    }
    delegates.push_back(name);
  }
  if (delegates.empty()) {
    throw std::invalid_argument("tuner: no delegate backend supports this");
  }

  // Candidate queue: each delegate's defaults up front, refilled with
  // hill-climb neighbors of the incumbent and seeded random probes.
  std::vector<TunedConfig> queue;
  std::set<std::string> seen;
  for (const std::string& name : delegates) {
    TunedConfig config = default_config(name);
    if (seen.insert(config.serialize()).second) {
      queue.push_back(std::move(config));
    }
  }
  const std::string canon_family = fp.family;
  Rng rng(options.seed ^
          persist::fnv1a_bytes(canon_family.data(), canon_family.size()));
  const std::size_t trial_budget = std::max<std::size_t>(1, options.trials);
  // Generation cap: random probes may all collide with `seen`, so bound
  // total candidate generations to guarantee termination.
  const std::size_t max_generated =
      std::max<std::size_t>(trial_budget * 4, 16);
  std::size_t generated = queue.size();

  TuneOutcome out;
  TrialOutcome incumbent;
  bool have_incumbent = false;

  std::size_t next = 0;
  while (out.trials.size() < trial_budget) {
    if (options.budget_ms > 0 &&
        elapsed_ms(start) >= static_cast<double>(options.budget_ms)) {
      break;
    }
    if (next >= queue.size()) {
      if (generated >= max_generated) break;
      bool refilled = false;
      if (have_incumbent) {
        for (TunedConfig& n : neighbors(incumbent.config)) {
          if (seen.insert(n.serialize()).second) {
            queue.push_back(std::move(n));
            refilled = true;
          }
        }
      }
      if (!refilled) {
        const std::string& backend =
            delegates[rng.next_below(delegates.size())];
        TunedConfig probe = random_config(backend, rng);
        if (seen.insert(probe.serialize()).second) {
          queue.push_back(std::move(probe));
        }
      }
      ++generated;
      continue;
    }
    const TunedConfig candidate = queue[next++];

    // Cost-model pruning: skip measuring a candidate whose predicted
    // cost is strictly worse than the incumbent's measured cost (with a
    // margin for interpolation noise).  Never prunes before the first
    // measurement, so the default config is always measured.
    if (have_incumbent && incumbent.ok) {
      if (const auto pred = cache_->predict(fp, candidate)) {
        const double period_gap =
            pred->period -
            static_cast<double>(incumbent.effective_period);
        if (period_gap > 0.5 ||
            (period_gap > -0.5 && pred->work > incumbent.work * 1.25)) {
          ++out.pruned;
          continue;
        }
      }
    }

    // Measure through the ordinary plan pipeline, minus everything
    // that would perturb the measurement or the shared caches: no
    // verification (quality is the slot count, not the checker), no
    // tiling cache (a memoized search would report zero nodes), serial
    // search (parallel node counts under a truncating budget are
    // schedule-dependent), no warm state.
    const Planner* planner = registry_->find(candidate.backend);
    if (planner == nullptr) continue;
    PlanRequest trial = request;
    trial.verify = false;
    trial.tiling_cache = nullptr;
    trial.tune_cache = nullptr;
    trial.warm = nullptr;
    trial.region_warm = nullptr;
    trial.region_stats = nullptr;
    TorusSearchStats search_stats;
    trial.search.stats = &search_stats;
    trial.search.use_parallel = false;
    apply_config(candidate, &trial);

    const Clock::time_point t0 = Clock::now();
    const PlanResult result = planner->plan(trial);
    TrialOutcome trial_outcome;
    trial_outcome.config = candidate;
    trial_outcome.ok = result.ok;
    trial_outcome.effective_period = result.effective_period();
    trial_outcome.work = work_proxy(candidate, trial, search_stats);
    trial_outcome.wall_ms = elapsed_ms(t0);
    if (trial_outcome.ok) {
      cache_->record_observation(fp, candidate,
                                 trial_outcome.effective_period,
                                 trial_outcome.work,
                                 trial_outcome.wall_ms);
    }
    if (!have_incumbent || strictly_better(trial_outcome, incumbent)) {
      incumbent = trial_outcome;
      have_incumbent = true;
    }
    out.trials.push_back(std::move(trial_outcome));
  }

  cache_->note_trials(out.trials.size());
  out.best = have_incumbent ? incumbent.config : default_config(delegates[0]);
  cache_->record_winner(fp, out.best);
  return out;
}

}  // namespace latticesched::tune

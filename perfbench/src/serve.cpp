// The `serve` workload: one PlanServer on loopback, 4 client connections
// with 16 sessions each, closed-loop DELTA + REPLAN cycles.  Every DELTA
// and REPLAN is checked afterwards against a local PlanSession replaying
// the same deltas; in the traced run that replay is also the in-process
// floor of the cycle.
//
// The client side records in constant memory (a digest per session, a
// fixed-size latency reservoir per verb), so the process's peak RSS does
// not grow with the number of cycles a run completes.
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "core/plan_service.hpp"
#include "core/plan_session.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "perfbench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace latticesched;

constexpr int kConnections = 4;
constexpr int kSessionsPerConnection = 16;
constexpr int kSetupReps = 7;
constexpr std::int64_t kGridSide = 12;
constexpr std::size_t kReservoir = 1 << 15;

BatchItem serve_item() {
  BatchItem item;
  item.query.scenario = "grid";
  item.query.params.n = kGridSide;
  item.query.params.radius = 1;
  item.backends = {"greedy", "tiling"};
  item.verify = true;
  return item;
}

std::uint64_t stream_seed(std::uint64_t seed, int session) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(session);
}

/// One session's seeded delta stream: even cycles remove a random grid
/// sensor, odd cycles re-add it, so the fleet stays at 143-144 sensors.
/// The check replay regenerates the same stream from the same seed.
struct DeltaStream {
  explicit DeltaStream(std::uint64_t seed) : rng(seed) {}

  std::string next() {
    if (!removed) {
      std::uniform_int_distribution<std::int64_t> cell(0, kGridSide - 1);
      x = cell(rng);
      y = cell(rng);
    }
    removed = !removed;
    return "step 1\n" + std::string(removed ? "remove " : "add ") +
           std::to_string(x) + " " + std::to_string(y) +
           (removed ? "\n" : " r 1\n");
  }

  std::mt19937_64 rng;
  std::int64_t x = 0, y = 0;
  bool removed = false;
};

/// Order-sensitive digest of a session's cycle outcomes: the DELTA's
/// sensor count and, per REPLAN row, the fields a report reader trusts.
struct Digest {
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  void cycle(std::size_t delta_sensors,
             const std::vector<PlanResultRow>& rows) {
    mix(delta_sensors);
    mix(rows.size());
    for (const PlanResultRow& r : rows) {
      mix(std::hash<std::string>{}(r.backend));
      mix((r.ok ? 1u : 0u) | (r.collision_free ? 2u : 0u) |
          (r.verified ? 4u : 0u));
      mix(r.period);
      mix(r.effective_period);
      mix(r.lower_bound);
      std::uint64_t gap = 0;
      std::memcpy(&gap, &r.optimality_gap, sizeof gap);
      mix(gap);
      mix(r.sensors);
    }
  }
  std::uint64_t h = 0;
};

/// A uniform sample of at most kReservoir values, allocated up front.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed)
      : rng_(seed), samples_(kReservoir, 0.0) {}

  void add(double x) {
    ++seen_;
    if (seen_ <= kReservoir) {
      samples_[seen_ - 1] = x;
      return;
    }
    const std::uint64_t j =
        std::uniform_int_distribution<std::uint64_t>(0, seen_ - 1)(rng_);
    if (j < kReservoir) samples_[j] = x;
  }
  std::uint64_t seen() const { return seen_; }
  void add_to(latticesched::SampleSet& set) const {
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(seen_, kReservoir);
         ++i) {
      set.add(samples_[i]);
    }
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
};

struct SessionRecord {
  std::uint64_t id = 0;  ///< server session id
  std::uint64_t cycles = 0;
  std::uint64_t errors = 0;
  std::uint64_t verified_rows = 0;
  Digest digest;
};

struct Connection {
  explicit Connection(int index)
      : delta_ms(3 * index + 1), replan_ms(3 * index + 2),
        round_ms(3 * index + 3) {}

  std::unique_ptr<serve::PlanClient> client;
  std::vector<SessionRecord> sessions;
  std::vector<DeltaStream> streams;
  Reservoir delta_ms, replan_ms, round_ms;
  std::string first_error;
};

/// A started server with every connection open and every session opened
/// and planned once (the warm-up REPLAN).
struct Fleet {
  std::unique_ptr<serve::PlanServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::size_t initial_sensors = 0;
};

void set_up(Fleet& fleet, std::uint64_t seed) {
  fleet.server = std::make_unique<serve::PlanServer>(serve::ServerConfig{});
  fleet.server->start();
  serve::ClientConfig config;
  config.port = fleet.server->port();
  for (int c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Connection>(c);
    conn->client = std::make_unique<serve::PlanClient>(config);
    for (int s = 0; s < kSessionsPerConnection; ++s) {
      const serve::OpenInfo info = conn->client->open(serve_item());
      (void)conn->client->replan(info.session);
      SessionRecord record;
      record.id = info.session;
      conn->sessions.push_back(record);
      conn->streams.emplace_back(
          stream_seed(seed, c * kSessionsPerConnection + s));
      fleet.initial_sensors += info.sensors;
    }
    fleet.conns.push_back(std::move(conn));
  }
}

void tear_down(Fleet& fleet) {
  fleet.conns.clear();  // clients first, then the server they talk to
  fleet.server.reset();
  fleet.initial_sensors = 0;
}

/// Closed loop on one connection: round-robin over its sessions, one
/// DELTA then one REPLAN per visit, until the deadline.  Spans go to
/// `trace` when given.
void drive(Connection& conn, Clock::time_point deadline, Trace* trace) {
  std::uint64_t errors = 0;
  while (Clock::now() < deadline && errors < 3) {
    const Clock::time_point round0 = Clock::now();
    for (int s = 0; s < kSessionsPerConnection; ++s) {
      Scope cycle_span(trace, "cycle");
      SessionRecord& session = conn.sessions[s];
      const std::string script = conn.streams[s].next();
      ++session.cycles;
      try {
        Clock::time_point t0 = Clock::now();
        std::size_t sensors = 0;
        {
          Scope span(trace, "serve.delta");
          sensors = conn.client->delta_script(session.id, script).sensors;
        }
        conn.delta_ms.add(ms_since(t0));
        t0 = Clock::now();
        serve::ReplanOutcome outcome;
        {
          Scope span(trace, "serve.replan");
          outcome = conn.client->replan(session.id);
        }
        conn.replan_ms.add(ms_since(t0));
        session.digest.cycle(sensors, outcome.rows);
        for (const PlanResultRow& r : outcome.rows) {
          session.verified_rows += r.verified ? 1 : 0;
        }
      } catch (const std::exception& e) {
        ++session.errors;
        if (errors++ == 0) conn.first_error = e.what();
      }
    }
    conn.round_ms.add(ms_since(round0));
  }
}

struct LoopResult {
  double wall_ms = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t io_bytes = 0;
};

std::uint64_t total_cycles(const Fleet& fleet) {
  std::uint64_t n = 0;
  for (const auto& conn : fleet.conns) {
    for (const SessionRecord& s : conn->sessions) n += s.cycles;
  }
  return n;
}

LoopResult run_loop(Fleet& fleet, double seconds, std::vector<Trace>* traces) {
  const std::uint64_t cycles0 = total_cycles(fleet);
  const std::uint64_t io0 = io_bytes();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = deadline_after(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    Trace* trace = traces != nullptr ? &(*traces)[c] : nullptr;
    Connection* conn = fleet.conns[c].get();
    threads.emplace_back(
        [conn, deadline, trace] { drive(*conn, deadline, trace); });
  }
  for (std::thread& t : threads) t.join();
  LoopResult r;
  r.wall_ms = ms_since(t0);
  r.io_bytes = io_bytes() - io0;
  r.cycles = total_cycles(fleet) - cycles0;
  return r;
}

/// Replays one connection's sessions on local PlanSessions built like the
/// server's, regenerating each session's delta stream, and checks each
/// session's digest.  A session that raised or whose digest differs
/// counts every one of its cycles (a DELTA and a REPLAN each) as failed.
/// With a trace, the replay's apply / replan / report codec calls are the
/// in-process floor of the cycle.
void replay_connection(const Connection& conn, int connection,
                       std::uint64_t seed, TilingCache& cache, Trace* trace,
                       Outcome& out, latticesched::SampleSet* report_bytes) {
  const BatchItem item = serve_item();
  for (int s = 0; s < kSessionsPerConnection; ++s) {
    const SessionRecord& record = conn.sessions[s];
    const auto count = [&](bool ok, const std::string& what) {
      for (std::uint64_t i = 0; i < 2 * record.cycles; ++i) out.check(ok, what);
    };
    if (record.errors > 0) {
      count(false, "serve: a DELTA or REPLAN raised: " + conn.first_error);
      continue;
    }
    ScenarioInstance inst = ScenarioRegistry::global().build(
        item.query.scenario, item.query.params, &cache);
    SessionConfig config;
    config.backends = item.backends;
    config.verify = item.verify;
    config.channels = inst.channels;
    config.tiling_cache = &cache;
    config.tune_family = item.query.scenario;
    PlanSession session(std::move(inst.deployment), config);
    (void)session.replan();  // the set-up's warm-up REPLAN
    DeltaStream stream(
        stream_seed(seed, connection * kSessionsPerConnection + s));
    Digest digest;
    bool clean = true;
    for (std::uint64_t step = 1; step <= record.cycles; ++step) {
      const MutationTrace delta = parse_mutation_script(stream.next());
      {
        Scope span(trace, "session.apply");
        session.apply(delta.steps.front().delta);
      }
      std::vector<PlanResult> results;
      {
        Scope span(trace, "session.replan");
        results = session.replan();
      }
      std::string json;
      {
        Scope span(trace, "report.encode");
        json = plan_results_to_json(results, inst.label, step);
      }
      std::vector<PlanResultRow> rows;
      {
        Scope span(trace, "report.parse");
        rows = parse_plan_results_json(json);
      }
      if (report_bytes != nullptr) {
        report_bytes->add(static_cast<double>(json.size()));
      }
      for (const PlanResultRow& r : rows) {
        clean = clean && r.ok && r.verified && r.collision_free;
      }
      digest.cycle(session.deployment().size(), rows);
    }
    count(clean && digest.h == record.digest.h,
          "serve: session " + std::to_string(record.id) +
              " differs from the local replay or is not verified "
              "collision-free");
  }
}

/// Checks every connection.  With a floor trace, connection 0 replays
/// alone first, so the floor is measured without concurrent callers; the
/// other connections then replay concurrently, one thread each.
void check_against_local(const Fleet& fleet, std::uint64_t seed, Trace* floor,
                         Outcome& out, latticesched::SampleSet& report_bytes) {
  TilingCache cache;  // shared, like the server's service cache
  const int first_parallel = floor != nullptr ? 1 : 0;
  if (floor != nullptr) {
    replay_connection(*fleet.conns[0], 0, seed, cache, floor, out,
                      &report_bytes);
  }
  std::vector<Outcome> outs(kConnections);
  std::vector<std::thread> threads;
  for (int c = first_parallel; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        replay_connection(*fleet.conns[c], c, seed, cache, nullptr, outs[c],
                          nullptr);
      } catch (const std::exception& e) {
        outs[c].check(false, std::string("serve: local replay raised: ") +
                                 e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Outcome& o : outs) {
    out.attempted += o.attempted;
    out.failed += o.failed;
    for (const std::string& f : o.failures) {
      if (out.failures.size() < 8) out.failures.push_back(f);
    }
  }
}

void close_all(Fleet& fleet, serve::SessionWireStats& sum, Outcome& out) {
  for (auto& conn : fleet.conns) {
    for (const SessionRecord& s : conn->sessions) {
      try {
        const serve::SessionWireStats st = conn->client->close_session(s.id);
        sum.graph_builds += st.graph_builds;
        sum.graph_patches += st.graph_patches;
        sum.warm_greedy += st.warm_greedy;
      } catch (const std::exception& e) {
        out.check(false, std::string("serve: CLOSE raised: ") + e.what());
      }
    }
  }
}

}  // namespace

void run_serve(const Options& opts, Outcome& out) {
  latticesched::SampleSet setup_ms;
  Fleet fleet;
  for (int rep = 0; rep < (opts.trace ? 1 : kSetupReps); ++rep) {
    tear_down(fleet);
    const Clock::time_point t0 = Clock::now();
    set_up(fleet, opts.seed);
    setup_ms.add(ms_since(t0));
  }

  const LoopResult loop =
      run_loop(fleet, opts.trace ? opts.seconds / 2 : opts.seconds, nullptr);
  latticesched::SampleSet delta_ms, replan_ms, round_ms;
  std::uint64_t replans = 0, rows = 0;
  for (const auto& conn : fleet.conns) {
    conn->delta_ms.add_to(delta_ms);
    conn->replan_ms.add_to(replan_ms);
    conn->round_ms.add_to(round_ms);
    replans += conn->replan_ms.seen();
    for (const SessionRecord& s : conn->sessions) rows += s.verified_rows;
  }
  const Tail setup = summarize(setup_ms);
  const Tail delta = summarize(delta_ms);
  const Tail replan = summarize(replan_ms);
  const Tail round = summarize(round_ms);
  print_tail("setup", setup, "ms");
  print_tail("DELTA round-trip", delta, "ms");
  print_tail("REPLAN round-trip", replan, "ms");
  print_tail("round of 16 sessions", round, "ms");
  std::printf("serve: %llu cycle(s) in %.1f ms on %d connections\n",
              static_cast<unsigned long long>(loop.cycles), loop.wall_ms,
              kConnections);
  const double peak_rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);

  const Clock::time_point epoch = Clock::now();
  std::vector<Trace> traces;
  LoopResult traced;
  if (opts.trace) {
    for (int c = 0; c < kConnections; ++c) traces.emplace_back(c, epoch);
    traced = run_loop(fleet, opts.seconds / 2, &traces);
  }

  serve::SessionWireStats closed;
  close_all(fleet, closed, out);
  const serve::PlanServer::Stats server_stats = fleet.server->stats();
  const TilingCache::Stats cache_stats =
      fleet.server->service().tiling_cache().stats();
  fleet.server->stop();

  Trace floor(kConnections, epoch);
  latticesched::SampleSet report_bytes;
  check_against_local(fleet, opts.seed, opts.trace ? &floor : nullptr, out,
                      report_bytes);

  if (!opts.trace) {
    const double seconds = loop.wall_ms / 1000.0;
    out.set("setup_s", setup.p50 / 1000.0);
    out.set("plans_per_s", static_cast<double>(rows) / seconds);
    out.set("replans_per_s", static_cast<double>(replans) / seconds);
    out.set("plan_s", round.p50 / 1000.0);
    out.set("replan_p50_ms", replan.p50);
    out.set("delta_p50_ms", delta.p50);
    out.set("peak_rss_mb", peak_rss_mb);
    return;
  }

  // Per-layer metrics.  The floor is per call: the median of connection
  // 0's replay spans over every cycle it ran.
  const std::map<std::string, std::vector<double>> floor_ms =
      durations_ms_by_name(floor.spans());
  const auto floor_median = [&](const char* name) {
    const auto it = floor_ms.find(name);
    return it == floor_ms.end() ? 0.0 : median(it->second);
  };
  out.set("session.apply_ms", floor_median("session.apply"));
  out.set("session.replan_ms", floor_median("session.replan"));
  out.set("report.encode_ms", floor_median("report.encode"));
  out.set("report.parse_ms", floor_median("report.parse"));
  out.set("report.bytes", report_bytes.percentile(50.0));
  // The tails are per-layer figures: their run-to-run spread is too wide
  // for an end-to-end bound on a machine whose host steals CPU time.
  out.set("serve.replan_p99_ms", replan.tail);
  out.set("serve.delta_p99_ms", delta.tail);
  out.set("serve.replan_overhead_ms",
          replan.p50 - floor_median("session.replan"));
  out.set("serve.delta_overhead_ms", delta.p50 - floor_median("session.apply"));
  // Client and server share this process, so every wire byte of both
  // directions is received here exactly once.
  out.set("serve.bytes_per_cycle", static_cast<double>(loop.io_bytes) /
                                       static_cast<double>(loop.cycles));
  out.set("serve.connections_dropped",
          static_cast<double>(server_stats.connections_dropped));
  out.set("serve.open_sessions_after",
          static_cast<double>(server_stats.open_sessions));
  out.set("session.graph_builds", static_cast<double>(closed.graph_builds));
  out.set("session.graph_patches", static_cast<double>(closed.graph_patches));
  out.set("session.warm_greedy", static_cast<double>(closed.warm_greedy));
  out.set("tiling_cache.hits", static_cast<double>(cache_stats.hits));
  out.set("tiling_cache.misses", static_cast<double>(cache_stats.misses));
  out.set("tiling_cache.entries", static_cast<double>(cache_stats.entries));
  out.set("tiling_cache.duplicate_misses",
          static_cast<double>(cache_stats.misses) -
              static_cast<double>(cache_stats.entries));
  out.set("planner.rows", static_cast<double>(rows));
  out.set("scenario.sensors", static_cast<double>(fleet.initial_sensors));

  // Tracing cost: the traced loop's cycles against the untraced loop's
  // mean cycle time per connection.
  Trace merged(0, epoch);
  for (const Trace& t : traces) merged.merge(t);
  const double cycles = static_cast<double>(traced.cycles);
  const double untraced_cycle_ms =
      loop.wall_ms * kConnections / static_cast<double>(loop.cycles);
  const double traced_cycle_ms = traced.wall_ms * kConnections / cycles;
  set_trace_fracs(out, merged.spans(), "cycle", untraced_cycle_ms * cycles,
                  traced_cycle_ms * cycles);
  merged.merge(floor);
  dump_trace(opts, merged.spans());
}

}  // namespace perfbench

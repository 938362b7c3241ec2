#include "serve/server.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/plan_session.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "dist/wire.hpp"
#include "util/json.hpp"

namespace latticesched::serve {

using dist::FaultAction;
using dist::FaultKind;
using dist::WireIoStatus;
using dist::WireMessage;

namespace {

/// Read slice for connection loops: short enough that stop() is
/// noticed promptly, long enough to stay off the scheduler's back.
constexpr int kReadSliceMs = 200;

}  // namespace

std::string session_stats_to_json(const SessionWireStats& stats) {
  std::ostringstream os;
  os << "{\"replans\": " << stats.replans
     << ", \"deltas\": " << stats.deltas
     << ", \"graph_builds\": " << stats.graph_builds
     << ", \"graph_patches\": " << stats.graph_patches
     << ", \"warm_greedy\": " << stats.warm_greedy
     << ", \"regions_replanned\": " << stats.regions_replanned << ", "
     << counter_fields_to_json(stats) << "}";
  return os.str();
}

SessionWireStats session_stats_from_json(const std::string& json) {
  SessionWireStats stats;
  stats.replans = json_uint_field(json, "replans");
  stats.deltas = json_uint_field(json, "deltas");
  stats.graph_builds = json_uint_field(json, "graph_builds");
  stats.graph_patches = json_uint_field(json, "graph_patches");
  stats.warm_greedy = json_uint_field(json, "warm_greedy");
  stats.regions_replanned = json_uint_field(json, "regions_replanned");
  counter_fields_from_json(json, &stats);
  return stats;
}

/// One accepted connection: the channel, its slice of the serve fault
/// plan, and the outbound frame counter the drop-connection trigger
/// counts (PONGs excluded, like the worker's injector).
struct PlanServer::Connection {
  Connection(int fd, std::uint64_t id, dist::FaultPlan faults)
      : channel(fd), id(id), faults(std::move(faults)) {}

  TcpChannel channel;
  std::uint64_t id;
  dist::FaultPlan faults;
  std::mutex send_mu;
  std::uint64_t frames_out = 0;  ///< counted sends; under send_mu
  bool dropped = false;          ///< drop-connection fired; under send_mu
};

/// Server-side session state.  Lives in the session map, NOT in any
/// connection: connections come and go (including by scripted
/// drop-connection faults), the session persists until CLOSE.
struct PlanServer::WireSession {
  std::mutex mu;

  std::string scenario;
  std::string label;
  std::size_t initial_sensors = 0;
  std::uint32_t channels = 1;

  /// Scenario geometry the PlanSession borrows pointers into; must
  /// live exactly as long as the session.
  std::optional<Lattice> lattice;
  std::optional<Tiling> tiling;

  std::unique_ptr<PlanSession> session;

  /// The item's mutation trace, applied one step per DELTA "next".
  std::vector<MutationStep> pending;
  std::size_t next_pending = 0;
  std::uint64_t last_step = 0;  ///< step tag of the latest applied delta

  /// DELTA idempotency: seq of the next fresh DELTA, plus the stored
  /// OK of the previous one (replayed when a reconnecting client
  /// retries a request whose response a dropped connection ate).
  std::uint64_t next_delta_seq = 0;
  WireMessage last_delta_ok;
  WireMessage open_ok;  ///< replayed on an idempotent re-OPEN

  /// This session's share of the shared cache traffic
  /// (before/after snapshots around its replans; approximate under
  /// concurrency).
  PlanCounters traffic;

  /// EVENT-stream subscribers (pruned lazily as connections die).
  std::vector<std::weak_ptr<Connection>> subscribers;
};

PlanServer::PlanServer(ServerConfig config) : config_(std::move(config)) {
  if (!config_.fault_spec.empty()) {
    fault_plan_ = dist::FaultPlan::parse(config_.fault_spec);
  }
  if (!config_.cache_dir.empty()) {
    service_.tiling_cache().set_persist_dir(config_.cache_dir);
  }
  if (fault_plan_.has_cache_faults()) {
    service_.tiling_cache().set_write_corruption_hook(
        dist::cache_corruption_hook(fault_plan_));
  }
}

PlanServer::~PlanServer() { stop(); }

void PlanServer::start() {
  listener_ = std::make_unique<TcpListener>(config_.host, config_.port);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t PlanServer::port() const {
  return listener_ != nullptr ? listener_->port() : config_.port;
}

void PlanServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (!started_) return;
  listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
    threads.swap(threads_);
  }
  for (const auto& conn : conns) conn->channel.shutdown();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

PlanServer::Stats PlanServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_dropped =
      connections_dropped_.load(std::memory_order_relaxed);
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.events_pushed = events_pushed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    stats.open_sessions = sessions_.size();
  }
  return stats;
}

void PlanServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = listener_->accept_connection(kReadSliceMs);
    if (fd < 0) continue;  // timeout or shutdown; the loop rechecks stop_
    const std::uint64_t cid =
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(
        fd, cid, fault_plan_.for_connection(cid));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    threads_.emplace_back([this, conn] { handle_connection(conn); });
  }
}

bool PlanServer::send(Connection& conn, const WireMessage& message) {
  std::lock_guard<std::mutex> lock(conn.send_mu);
  if (conn.dropped) return false;
  const std::uint64_t frame = conn.frames_out++;
  for (const FaultAction& action : conn.faults.actions) {
    if (action.kind == FaultKind::kDropConnection &&
        frame == action.after_frames) {
      // Hard-close right before this frame goes out: the client sees a
      // torn connection, the session map does not.
      conn.dropped = true;
      conn.channel.shutdown();
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return conn.channel.write(message, config_.io_timeout_ms) ==
         WireIoStatus::kOk;
}

void PlanServer::handle_connection(std::shared_ptr<Connection> conn) {
  // delay-accept faults stall servicing of this connection (the TCP
  // accept already happened; the client waits on the HELLO).
  for (const FaultAction& action : conn->faults.actions) {
    if (action.kind == FaultKind::kDelayAcceptMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
    }
  }
  if (send(*conn,
           {"HELLO",
            "{\"protocol\": " + std::to_string(dist::kProtocolVersion) +
                ", \"role\": \"server\"}"})) {
    for (;;) {
      WireMessage message;
      const WireIoStatus st = conn->channel.read(&message, kReadSliceMs);
      if (st == WireIoStatus::kTimeout) {
        if (stop_.load(std::memory_order_acquire)) break;
        continue;
      }
      if (st == WireIoStatus::kClosed) break;  // EOF or lost framing
      if (!handle_message(*conn, message)) break;
    }
  }
  // Half-close so the peer sees EOF immediately; the fd itself lives
  // until the Connection is destroyed (concurrent EVENT pushers may
  // still hold the pointer — their sends fail cleanly).
  conn->channel.shutdown();
}

bool PlanServer::handle_message(Connection& conn,
                                const WireMessage& message) {
  if (message.verb == "PING") {
    // Uncounted (like the worker's PONG): probe timing must not shift
    // the deterministic drop-connection triggers.
    std::lock_guard<std::mutex> lock(conn.send_mu);
    if (conn.dropped) return false;
    return conn.channel.write({"PONG", ""}, config_.io_timeout_ms) ==
           WireIoStatus::kOk;
  }
  if (message.verb == "SHUTDOWN") return false;  // sessions survive
  try {
    if (message.verb == "OPEN") {
      handle_open(conn, message.body);
    } else if (message.verb == "DELTA") {
      handle_delta(conn, message.body);
    } else if (message.verb == "REPLAN") {
      handle_replan(conn, message.body);
    } else if (message.verb == "SUBSCRIBE") {
      handle_subscribe(conn, message.body);
    } else if (message.verb == "CLOSE") {
      handle_close(conn, message.body);
    } else {
      // Unknown verbs answer ERROR and leave the connection (and its
      // sessions) alone — a typo'd client verb is not a protocol loss.
      return send(conn,
                  {"ERROR", "unknown verb '" + message.verb + "'"});
    }
  } catch (const std::exception& e) {
    return send(conn, {"ERROR", e.what()});
  }
  return true;
}

std::shared_ptr<PlanServer::WireSession> PlanServer::find_session(
    const std::string& id_text, std::uint64_t* id) {
  *id = parse_u64(id_text, "serve: bad session id");
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(*id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("unknown session " + id_text);
  }
  return it->second;
}

void PlanServer::handle_open(Connection& conn, const std::string& body) {
  std::string token, items_json;
  dist::split_body(body, &token, &items_json);
  if (!token.empty()) {
    // Idempotent re-OPEN: a reconnecting client retrying an OPEN whose
    // OK a dropped connection ate must not leak a second session.
    std::shared_ptr<WireSession> existing;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      const auto it = open_tokens_.find(token);
      if (it != open_tokens_.end()) existing = sessions_.at(it->second);
    }
    if (existing != nullptr) {
      std::lock_guard<std::mutex> lock(existing->mu);
      (void)send(conn, existing->open_ok);
      return;
    }
  }

  const std::vector<BatchItem> items = parse_batch_items_json(items_json);
  if (items.size() != 1) {
    throw std::invalid_argument("OPEN expects exactly one batch item, got " +
                                std::to_string(items.size()));
  }
  const BatchItem& item = items.front();
  for (const std::string& name : item.backends) {
    if (PlannerRegistry::global().find(name) == nullptr) {
      throw std::invalid_argument("unknown backend '" + name + "'");
    }
  }

  // Mirror of the PlanService item path (core/plan_service.cpp), with
  // the trace queued instead of replayed — the client drives each step
  // through DELTA, which is what keeps remote and local runs
  // result-identical step for step.
  ScenarioInstance instance = ScenarioRegistry::global().build(
      item.query.scenario, item.query.params, &service_.tiling_cache());
  auto ws = std::make_shared<WireSession>();
  ws->scenario = item.query.scenario;
  ws->label = instance.label;
  ws->initial_sensors = instance.deployment.size();
  ws->channels = instance.channels;
  ws->lattice = std::move(instance.lattice);
  ws->tiling = std::move(instance.tiling);
  MutationTrace trace = std::move(instance.trace);
  if (!item.trace_script.empty()) {
    trace = parse_mutation_script(item.trace_script);
  }
  ws->pending = std::move(trace.steps);

  SessionConfig config = service_.session_config(item);
  config.channels = ws->channels;
  if (ws->lattice.has_value()) config.lattice = &*ws->lattice;
  if (ws->tiling.has_value()) config.tiling = &*ws->tiling;
  ws->session =
      std::make_unique<PlanSession>(std::move(instance.deployment), config);

  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_session_id_++;
    sessions_[id] = ws;
    if (!token.empty()) open_tokens_[token] = id;
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);

  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"scenario\": \""
     << ws->scenario << "\", \"label\": \"" << ws->label
     << "\", \"sensors\": " << ws->initial_sensors
     << ", \"channels\": " << ws->channels
     << ", \"pending\": " << ws->pending.size() << "}";
  ws->open_ok = {"OK", os.str()};
  std::lock_guard<std::mutex> lock(ws->mu);
  (void)send(conn, ws->open_ok);
}

void PlanServer::handle_delta(Connection& conn, const std::string& body) {
  std::string first, payload;
  dist::split_body(body, &first, &payload);
  const std::size_t space = first.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("DELTA expects '<session> <seq>'");
  }
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws =
      find_session(first.substr(0, space), &id);
  const std::uint64_t seq =
      parse_u64(first.substr(space + 1), "serve: bad delta seq");

  std::lock_guard<std::mutex> lock(ws->mu);
  if (seq + 1 == ws->next_delta_seq) {
    // The previous DELTA, retried: its response was lost with a dropped
    // connection.  Replay the stored OK instead of double-applying.
    (void)send(conn, ws->last_delta_ok);
    return;
  }
  if (seq != ws->next_delta_seq) {
    throw std::invalid_argument(
        "delta seq out of order: expected " +
        std::to_string(ws->next_delta_seq) + ", got " + std::to_string(seq));
  }
  if (payload == "next") {
    if (ws->next_pending >= ws->pending.size()) {
      throw std::invalid_argument("no pending trace steps");
    }
    const MutationStep& step = ws->pending[ws->next_pending];
    ws->session->apply(step.delta);
    ws->last_step = step.at;
    ++ws->next_pending;
  } else {
    // Inline script: timestamps are relative to the session's current
    // step, so scripts compose with a partially replayed trace.
    const MutationTrace trace = parse_mutation_script(payload);
    const std::uint64_t base = ws->last_step;
    for (const MutationStep& step : trace.steps) {
      ws->session->apply(step.delta);
      ws->last_step = base + step.at;
    }
  }
  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"seq\": " << seq
     << ", \"step\": " << ws->last_step
     << ", \"sensors\": " << ws->session->deployment().size()
     << ", \"pending\": " << (ws->pending.size() - ws->next_pending) << "}";
  ws->last_delta_ok = {"OK", os.str()};
  ++ws->next_delta_seq;
  (void)send(conn, ws->last_delta_ok);
}

void PlanServer::handle_replan(Connection& conn, const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws = find_session(first, &id);

  std::lock_guard<std::mutex> lock(ws->mu);
  const TilingCache::Stats before = service_.tiling_cache().stats();
  const std::vector<PlanResult> results = ws->session->replan();
  ws->traffic += counters_between(before, service_.tiling_cache().stats());

  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"step\": " << ws->last_step
     << ", \"sensors\": " << ws->session->deployment().size() << "}\n"
     << plan_results_to_json(results, ws->label, ws->last_step);
  const WireMessage result{"RESULT", os.str()};
  (void)send(conn, result);

  // The session-event stream: the same body, pushed to every live
  // subscriber.  Sent under ws->mu so two replans of one session can
  // never interleave their events out of order.
  const WireMessage event{"EVENT", result.body};
  std::size_t kept = 0;
  for (std::weak_ptr<Connection>& weak : ws->subscribers) {
    const std::shared_ptr<Connection> sub = weak.lock();
    if (sub == nullptr) continue;  // connection gone; prune
    if (send(*sub, event)) {
      events_pushed_.fetch_add(1, std::memory_order_relaxed);
    }
    ws->subscribers[kept++] = weak;
  }
  ws->subscribers.resize(kept);
}

void PlanServer::handle_subscribe(Connection& conn,
                                  const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  std::uint64_t id = 0;
  const std::shared_ptr<WireSession> ws = find_session(first, &id);
  std::shared_ptr<Connection> self;
  {
    // The subscriber list holds weak refs to connections; find our own
    // shared_ptr in the registry.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& candidate : conns_) {
      if (candidate.get() == &conn) {
        self = candidate;
        break;
      }
    }
  }
  if (self == nullptr) {
    throw std::runtime_error("subscribe: connection not registered");
  }
  std::lock_guard<std::mutex> lock(ws->mu);
  ws->subscribers.push_back(self);
  std::ostringstream os;
  os << id << "\n{\"session\": " << id << ", \"subscribed\": true}";
  (void)send(conn, {"OK", os.str()});
}

void PlanServer::handle_close(Connection& conn, const std::string& body) {
  std::string first, rest;
  dist::split_body(body, &first, &rest);
  const std::uint64_t id = parse_u64(first, "serve: bad session id");
  std::shared_ptr<WireSession> ws;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw std::invalid_argument("unknown session " + first);
    }
    ws = it->second;
    sessions_.erase(it);
    for (auto token_it = open_tokens_.begin();
         token_it != open_tokens_.end();) {
      token_it = token_it->second == id ? open_tokens_.erase(token_it)
                                        : std::next(token_it);
    }
  }
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(ws->mu);
  SessionWireStats stats = ws->session->stats();
  stats += ws->traffic;
  (void)send(conn,
             {"OK", first + "\n" + session_stats_to_json(stats)});
}

}  // namespace latticesched::serve

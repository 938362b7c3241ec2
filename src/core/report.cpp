#include "core/report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace latticesched {

namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Round-trip-exact double form for the wire (shard assignments must
/// reproduce the coordinator's instances bit-for-bit; %.6g would round
/// a swept density into a different deployment).
std::string format_double_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr const char* kCsvHeader =
    "scenario,step,backend,ok,sensors,period,lower_bound,optimality_gap,"
    "collision_free,verified,slot_balance,duty_cycle,wall_ms,channels,"
    "effective_period,error";

void emit_csv_row(std::ostream& os, const PlanResultRow& row) {
  os << row.scenario << ',' << row.step << ',' << row.backend << ','
     << (row.ok ? 1 : 0) << ','
     << row.sensors << ',' << row.period << ',' << row.lower_bound << ','
     << format_double(row.optimality_gap) << ','
     << (row.collision_free ? 1 : 0) << ',' << (row.verified ? 1 : 0)
     << ',' << format_double(row.slot_balance) << ','
     << format_double(row.duty_cycle) << ','
     << format_double(row.wall_ms) << ',' << row.channels << ','
     << row.effective_period << ',' << '"' << row.error << '"' << '\n';
}

void emit_json_object(std::ostream& os, const PlanResultRow& row,
                      const std::string& indent) {
  os << indent << "{\"scenario\": \"" << json_escape(row.scenario)
     << "\", \"step\": " << row.step
     << ", \"backend\": \"" << json_escape(row.backend)
     << "\", \"ok\": " << (row.ok ? "true" : "false")
     << ", \"sensors\": " << row.sensors << ", \"period\": " << row.period
     << ", \"lower_bound\": " << row.lower_bound
     << ", \"optimality_gap\": " << format_double(row.optimality_gap)
     << ", \"collision_free\": " << (row.collision_free ? "true" : "false")
     << ", \"verified\": " << (row.verified ? "true" : "false")
     << ", \"slot_balance\": " << format_double(row.slot_balance)
     << ", \"duty_cycle\": " << format_double(row.duty_cycle)
     << ", \"wall_ms\": " << format_double(row.wall_ms)
     << ", \"channels\": " << row.channels
     << ", \"effective_period\": " << row.effective_period
     << ", \"detail\": \"" << json_escape(row.detail) << "\", \"error\": \""
     << json_escape(row.error) << "\"}";
}

// -- Minimal parsers for the exact formats emitted above ------------------

std::vector<std::string> split_line(const std::string& line) {
  // The only quoted field is the trailing `error`, so split the first 15
  // commas and treat the rest as the error payload.
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (int field = 0; field < 15; ++field) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) {
      throw std::invalid_argument("plan-results CSV: short row: " + line);
    }
    out.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  std::string error = line.substr(pos);
  if (error.size() >= 2 && error.front() == '"' && error.back() == '"') {
    error = error.substr(1, error.size() - 2);
  }
  out.push_back(error);
  return out;
}

PlanResultRow row_from_json_object(const std::string& obj) {
  PlanResultRow row;
  row.scenario = json_field(obj, "scenario");
  row.step = json_uint_field(obj, "step");
  row.backend = json_field(obj, "backend");
  row.ok = json_field(obj, "ok") == "true";
  row.sensors = json_uint_field(obj, "sensors");
  row.period = static_cast<std::uint32_t>(json_uint_field(obj, "period"));
  row.lower_bound =
      static_cast<std::uint32_t>(json_uint_field(obj, "lower_bound"));
  row.optimality_gap = std::stod(json_field(obj, "optimality_gap"));
  row.collision_free = json_field(obj, "collision_free") == "true";
  row.verified = json_field(obj, "verified") == "true";
  row.slot_balance = std::stod(json_field(obj, "slot_balance"));
  row.duty_cycle = std::stod(json_field(obj, "duty_cycle"));
  row.wall_ms = std::stod(json_field(obj, "wall_ms"));
  row.channels = static_cast<std::uint32_t>(json_uint_field(obj, "channels"));
  row.effective_period =
      static_cast<std::uint32_t>(json_uint_field(obj, "effective_period"));
  row.detail = json_field(obj, "detail");
  row.error = json_field(obj, "error");
  return row;
}

}  // namespace

PlanResultRow to_row(const PlanResult& result, const std::string& scenario,
                     std::uint64_t step) {
  PlanResultRow row;
  row.scenario = scenario;
  row.step = step;
  row.backend = result.backend;
  row.ok = result.ok;
  row.sensors = result.slots.slot.size();
  row.period = result.slots.period;
  row.lower_bound = result.lower_bound;
  row.optimality_gap = result.optimality_gap;
  row.collision_free = result.collision_free;
  row.verified = result.verified;
  row.slot_balance = result.slot_balance;
  row.duty_cycle = result.duty_cycle;
  row.wall_ms = result.wall_seconds * 1e3;
  row.channels = result.channels;
  row.effective_period = result.effective_period();
  row.detail = result.detail;
  row.error = result.error;
  return row;
}

std::string plan_results_to_csv(const std::vector<PlanResult>& results,
                                const std::string& scenario) {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const PlanResult& r : results) emit_csv_row(os, to_row(r, scenario));
  return os.str();
}

std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario) {
  return plan_results_to_json(results, scenario, 0);
}

std::string plan_results_to_json(const std::vector<PlanResult>& results,
                                 const std::string& scenario,
                                 std::uint64_t step) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_json_object(os, to_row(results[i], scenario, step), "  ");
    os << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "]\n";
  return os.str();
}

std::vector<PlanResultRow> parse_plan_results_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line != kCsvHeader) {
    throw std::invalid_argument("plan-results CSV: bad header");
  }
  std::vector<PlanResultRow> rows;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = split_line(line);
    PlanResultRow row;
    row.scenario = f[0];
    row.step = std::stoull(f[1]);
    row.backend = f[2];
    row.ok = f[3] == "1";
    row.sensors = std::stoull(f[4]);
    row.period = static_cast<std::uint32_t>(std::stoul(f[5]));
    row.lower_bound = static_cast<std::uint32_t>(std::stoul(f[6]));
    row.optimality_gap = std::stod(f[7]);
    row.collision_free = f[8] == "1";
    row.verified = f[9] == "1";
    row.slot_balance = std::stod(f[10]);
    row.duty_cycle = std::stod(f[11]);
    row.wall_ms = std::stod(f[12]);
    row.channels = static_cast<std::uint32_t>(std::stoul(f[13]));
    row.effective_period = static_cast<std::uint32_t>(std::stoul(f[14]));
    row.error = f[15];
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<PlanResultRow> parse_plan_results_json(const std::string& json) {
  // The emitters write one result object per line; batch JSON nests the
  // same per-line objects under "items", so scanning for lines holding a
  // "backend" key parses both forms.
  std::vector<PlanResultRow> rows;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"backend\": ") == std::string::npos) continue;
    rows.push_back(row_from_json_object(line));
  }
  return rows;
}

std::string batch_report_to_csv(const BatchReport& report) {
  std::ostringstream os;
  os << kCsvHeader << '\n';
  for (const BatchItemReport& item : report.items) {
    if (!item.built) {
      PlanResultRow row;
      row.scenario = item.label.empty() ? item.scenario : item.label;
      row.backend = "-";
      row.error = item.error;
      emit_csv_row(os, row);
      continue;
    }
    if (!item.steps.empty()) {
      for (const BatchStepReport& step : item.steps) {
        for (const PlanResult& r : step.results) {
          emit_csv_row(os, to_row(r, item.label, step.step));
        }
      }
      continue;
    }
    for (const PlanResult& r : item.results) {
      emit_csv_row(os, to_row(r, item.label));
    }
  }
  return os.str();
}

std::string batch_report_to_json(const BatchReport& report) {
  std::ostringstream os;
  os << "{\n  \"items\": [\n";
  for (std::size_t i = 0; i < report.items.size(); ++i) {
    const BatchItemReport& item = report.items[i];
    os << "    {\"scenario\": \"" << json_escape(item.scenario)
       << "\", \"label\": \"" << json_escape(item.label)
       << "\", \"sensors\": " << item.sensors
       << ", \"channels\": " << item.channels
       << ", \"steps\": " << item.steps.size()
       << ", \"built\": " << (item.built ? "true" : "false")
       << ", \"error\": \"" << json_escape(item.error)
       << "\", \"results\": [\n";
    if (!item.steps.empty()) {
      // Dynamic item: one row per (step, backend); the step column
      // groups them back on parse (item.results is the final step's
      // results and is NOT emitted separately).
      std::size_t emitted = 0, total = 0;
      for (const BatchStepReport& step : item.steps) {
        total += step.results.size();
      }
      for (const BatchStepReport& step : item.steps) {
        for (const PlanResult& r : step.results) {
          emit_json_object(os, to_row(r, item.label, step.step), "      ");
          os << (++emitted < total ? "," : "") << '\n';
        }
      }
    } else {
      for (std::size_t j = 0; j < item.results.size(); ++j) {
        emit_json_object(os, to_row(item.results[j], item.label), "      ");
        os << (j + 1 < item.results.size() ? "," : "") << '\n';
      }
    }
    os << "    ]}" << (i + 1 < report.items.size() ? "," : "") << '\n';
  }
  os << "  ],\n";
  write_counter_groups(os, report);
  os << "  \"worker_failures\": " << report.worker_failures << ",\n";
  os << "  \"worker_timeouts\": " << report.worker_timeouts << ",\n";
  os << "  \"degraded\": " << (report.degraded ? "true" : "false") << ",\n";
  os << "  \"quarantined_items\": [";
  for (std::size_t i = 0; i < report.quarantined_items.size(); ++i) {
    os << (i == 0 ? "" : ", ") << report.quarantined_items[i];
  }
  os << "],\n";
  os << "  \"wall_ms\": " << format_double(report.wall_seconds * 1e3)
     << "\n}\n";
  return os.str();
}

PlanResult result_from_row(const PlanResultRow& row) {
  PlanResult result;
  result.backend = row.backend;
  result.ok = row.ok;
  result.error = row.error;
  result.detail = row.detail;
  result.collision_free = row.collision_free;
  result.verified = row.verified;
  result.lower_bound = row.lower_bound;
  result.optimality_gap = row.optimality_gap;
  result.slot_balance = row.slot_balance;
  result.duty_cycle = row.duty_cycle;
  result.wall_seconds = row.wall_ms / 1e3;
  result.channels = row.channels;
  result.slots.period = row.period;
  // The row stores the sensor count as the slot-table size; a
  // placeholder table keeps that invariant without shipping the slots.
  result.slots.slot.assign(row.sensors, 0);
  // A successful multichannel plan carries its folded period through
  // channel_slots (effective_period() reads it); failures record the
  // channel count only, exactly like the live pipeline.
  if (row.channels > 1 && row.ok) {
    MultiChannelSlots folded;
    folded.period = row.effective_period;
    folded.channels = row.channels;
    result.channel_slots = std::move(folded);
  }
  return result;
}

BatchReport parse_batch_report_json(const std::string& json) {
  BatchReport report;
  std::istringstream is(json);
  std::string line;
  bool saw_cache = false;
  bool saw_wall = false;
  std::size_t declared_steps = 0;  // of the item currently being parsed
  while (std::getline(is, line)) {
    if (line.find("\"label\": ") != std::string::npos) {
      BatchItemReport item;
      item.scenario = json_field(line, "scenario");
      item.label = json_field(line, "label");
      item.sensors = json_uint_field(line, "sensors");
      item.channels =
          static_cast<std::uint32_t>(json_uint_field(line, "channels"));
      declared_steps = json_uint_field(line, "steps");
      item.built = json_field(line, "built") == "true";
      item.error = json_field(line, "error");
      report.items.push_back(std::move(item));
    } else if (line.find("\"backend\": ") != std::string::npos) {
      if (report.items.empty()) {
        throw std::invalid_argument(
            "batch JSON: result row before any item");
      }
      const PlanResultRow row = row_from_json_object(line);
      BatchItemReport& item = report.items.back();
      if (declared_steps > 0) {
        // Dynamic item: the step column groups rows back into
        // BatchStepReports (rows of one step are consecutive).  The
        // fleet size is the max over the step's rows — a FAILED
        // backend's row carries sensors=0 (no slot table) and must not
        // zero the step.
        if (item.steps.empty() || item.steps.back().step != row.step) {
          item.steps.push_back(BatchStepReport{row.step, 0, {}});
        }
        item.steps.back().sensors =
            std::max(item.steps.back().sensors, row.sensors);
        item.steps.back().results.push_back(result_from_row(row));
      } else {
        item.results.push_back(result_from_row(row));
      }
    } else if (const std::string_view group = read_counter_group(line, &report);
               !group.empty()) {
      saw_cache = saw_cache || group == "cache";
    } else if (line.find("\"worker_failures\": ") != std::string::npos) {
      report.worker_failures = json_uint_field(line, "worker_failures");
    } else if (line.find("\"worker_timeouts\": ") != std::string::npos) {
      report.worker_timeouts = json_uint_field(line, "worker_timeouts");
    } else if (line.find("\"degraded\": ") != std::string::npos) {
      report.degraded = json_field(line, "degraded") == "true";
    } else if (line.find("\"quarantined_items\": ") != std::string::npos) {
      // "quarantined_items": [i, j, ...] — split the bracketed list.
      const std::size_t open = line.find('[');
      const std::size_t close = line.find(']', open);
      if (open == std::string::npos || close == std::string::npos) {
        throw std::invalid_argument(
            "batch JSON: malformed quarantined_items");
      }
      std::istringstream list(line.substr(open + 1, close - open - 1));
      std::string token;
      while (std::getline(list, token, ',')) {
        if (token.find_first_not_of(" \t") == std::string::npos) continue;
        report.quarantined_items.push_back(std::stoull(token));
      }
    } else if (line.find("\"wall_ms\": ") != std::string::npos) {
      report.wall_seconds = std::stod(json_field(line, "wall_ms")) / 1e3;
      saw_wall = true;
    }
  }
  if (!saw_cache || !saw_wall) {
    throw std::invalid_argument("batch JSON: missing cache/wall_ms footer");
  }
  // Dynamic items mirror the live shape: results == the final step's.
  for (BatchItemReport& item : report.items) {
    if (!item.steps.empty()) item.results = item.steps.back().results;
  }
  return report;
}

std::string batch_items_to_json(const std::vector<BatchItem>& items) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    std::string backends;
    for (std::size_t b = 0; b < item.backends.size(); ++b) {
      if (b > 0) backends += ',';
      backends += item.backends[b];
    }
    os << "  {\"scenario\": \"" << json_escape(item.query.scenario)
       << "\", \"n\": " << item.query.params.n
       << ", \"radius\": " << item.query.params.radius
       << ", \"seed\": " << item.query.params.seed
       << ", \"channels\": " << item.query.params.channels
       << ", \"density\": " << format_double_exact(item.query.params.density)
       << ", \"steps\": " << item.query.params.steps
       << ", \"trace_script\": \"" << json_escape(item.trace_script)
       << "\", \"backends\": \"" << json_escape(backends)
       << "\", \"verify\": " << (item.verify ? "true" : "false")
       << ", \"regions\": " << item.regions
       << ", \"region_halo\": " << item.region_halo
       << ", \"max_period_cells\": " << item.search.max_period_cells
       << ", \"node_limit\": " << item.search.node_limit
       << ", \"require_all_prototiles\": "
       << (item.search.require_all_prototiles ? "true" : "false")
       << ", \"use_dense_engine\": "
       << (item.search.use_dense_engine ? "true" : "false")
       << ", \"use_parallel\": "
       << (item.search.use_parallel ? "true" : "false")
       << ", \"sa_max_iters\": " << item.sa.max_iters
       << ", \"sa_initial_temperature\": "
       << format_double_exact(item.sa.initial_temperature)
       << ", \"sa_cooling\": " << format_double_exact(item.sa.cooling)
       << ", \"sa_seed\": " << item.sa.seed
       << ", \"sa_restarts\": " << item.sa.restarts << "}"
       << (i + 1 < items.size() ? "," : "") << '\n';
  }
  os << "]\n";
  return os.str();
}

std::vector<BatchItem> parse_batch_items_json(const std::string& json) {
  std::vector<BatchItem> items;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"scenario\": ") == std::string::npos) continue;
    BatchItem item;
    item.query.scenario = json_field(line, "scenario");
    item.query.params.n = std::stoll(json_field(line, "n"));
    item.query.params.radius = std::stoll(json_field(line, "radius"));
    item.query.params.seed = json_uint_field(line, "seed");
    item.query.params.channels =
        static_cast<std::uint32_t>(json_uint_field(line, "channels"));
    item.query.params.density = std::stod(json_field(line, "density"));
    item.query.params.steps = std::stoll(json_field(line, "steps"));
    item.trace_script = json_field(line, "trace_script");
    item.backends = split_csv_list(json_field(line, "backends"));
    item.verify = json_field(line, "verify") == "true";
    item.regions = json_uint_field(line, "regions");
    item.region_halo = std::stoll(json_field(line, "region_halo"));
    item.search.max_period_cells =
        std::stoll(json_field(line, "max_period_cells"));
    item.search.node_limit = json_uint_field(line, "node_limit");
    item.search.require_all_prototiles =
        json_field(line, "require_all_prototiles") == "true";
    item.search.use_dense_engine =
        json_field(line, "use_dense_engine") == "true";
    item.search.use_parallel = json_field(line, "use_parallel") == "true";
    item.sa.max_iters = json_uint_field(line, "sa_max_iters");
    item.sa.initial_temperature =
        std::stod(json_field(line, "sa_initial_temperature"));
    item.sa.cooling = std::stod(json_field(line, "sa_cooling"));
    item.sa.seed = json_uint_field(line, "sa_seed");
    item.sa.restarts = json_uint_field(line, "sa_restarts");
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace latticesched

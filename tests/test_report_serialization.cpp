// Report serialization tests: CSV/JSON round-trips of PlanResult rows
// (including the multichannel fields), schedule CSV with the channel
// columns, the PlanCounters codecs and merge, and golden-file pins of
// the CLI's --format json output and of every registry row.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/plan_service.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "serve/server.hpp"
#include "tiling/shapes.hpp"
#include "util/parallel.hpp"

namespace latticesched {
namespace {

std::vector<PlanResult> sample_results(std::uint32_t channels) {
  static const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));
  PlanRequest request;
  request.deployment = &d;
  request.channels = channels;
  return PlannerRegistry::global().plan_all(request, {"tiling", "tdma"});
}

void expect_rows_match(const PlanResultRow& parsed,
                       const PlanResultRow& expected, bool with_detail) {
  EXPECT_EQ(parsed.scenario, expected.scenario);
  EXPECT_EQ(parsed.backend, expected.backend);
  EXPECT_EQ(parsed.ok, expected.ok);
  EXPECT_EQ(parsed.sensors, expected.sensors);
  EXPECT_EQ(parsed.period, expected.period);
  EXPECT_EQ(parsed.lower_bound, expected.lower_bound);
  EXPECT_NEAR(parsed.optimality_gap, expected.optimality_gap, 1e-5);
  EXPECT_EQ(parsed.collision_free, expected.collision_free);
  EXPECT_EQ(parsed.verified, expected.verified);
  EXPECT_NEAR(parsed.slot_balance, expected.slot_balance, 1e-5);
  EXPECT_NEAR(parsed.duty_cycle, expected.duty_cycle, 1e-5);
  EXPECT_NEAR(parsed.wall_ms, expected.wall_ms,
              1e-5 + expected.wall_ms * 1e-4);
  EXPECT_EQ(parsed.channels, expected.channels);
  EXPECT_EQ(parsed.effective_period, expected.effective_period);
  if (with_detail) EXPECT_EQ(parsed.detail, expected.detail);
  EXPECT_EQ(parsed.error, expected.error);
}

TEST(ReportSerialization, CsvRoundTripWithChannels) {
  const auto results = sample_results(3);
  const std::string csv = plan_results_to_csv(results, "unit");
  const auto rows = parse_plan_results_csv(csv);
  ASSERT_EQ(rows.size(), results.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PlanResultRow expected = to_row(results[i], "unit");
    EXPECT_EQ(expected.channels, 3u);
    EXPECT_EQ(expected.effective_period, (results[i].slots.period + 2) / 3);
    expect_rows_match(rows[i], expected, /*with_detail=*/false);
  }
  EXPECT_THROW(parse_plan_results_csv("bogus\n"), std::invalid_argument);
}

TEST(ReportSerialization, JsonRoundTripWithChannelsAndErrors) {
  // Include a failing backend so the error string round-trips too.
  const Prototile f(PointVec{{0, 0}, {1, 0}, {-1, 1}, {0, 1}, {0, 2}}, "F");
  const Deployment d = Deployment::grid(Box::cube(2, 0, 3), f);
  PlanRequest request;
  request.deployment = &d;
  request.channels = 2;
  request.search.max_period_cells = 40;
  auto results = PlannerRegistry::global().plan_all(request, {"tiling"});
  auto ok_results = sample_results(2);
  results.insert(results.end(), ok_results.begin(), ok_results.end());

  const std::string json = plan_results_to_json(results, "unit");
  const auto rows = parse_plan_results_json(json);
  ASSERT_EQ(rows.size(), results.size());
  EXPECT_FALSE(rows[0].ok);
  EXPECT_FALSE(rows[0].error.empty());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    expect_rows_match(rows[i], to_row(results[i], "unit"),
                      /*with_detail=*/true);
  }
}

TEST(ReportSerialization, BatchReportEmittersCoverEveryItem) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.channels = 2;
  std::vector<BatchItem> items;
  for (const char* name : {"grid", "multichannel"}) {
    BatchItem item;
    item.query = ScenarioQuery{name, params};
    item.backends = {"tiling", "tdma"};
    items.push_back(std::move(item));
  }
  const BatchReport report = service.run(items);
  ASSERT_TRUE(report.all_ok());

  const std::string csv = batch_report_to_csv(report);
  const auto csv_rows = parse_plan_results_csv(csv);
  EXPECT_EQ(csv_rows.size(), 4u);  // 2 items x 2 backends
  EXPECT_EQ(csv_rows[0].scenario, report.items[0].label);
  EXPECT_EQ(csv_rows[2].scenario, report.items[1].label);
  EXPECT_EQ(csv_rows[2].channels, 2u);

  const std::string json = batch_report_to_json(report);
  EXPECT_NE(json.find("\"cache\": {\"hits\": "), std::string::npos);
  const auto json_rows = parse_plan_results_json(json);
  ASSERT_EQ(json_rows.size(), 4u);
  for (std::size_t i = 0; i < json_rows.size(); ++i) {
    expect_rows_match(json_rows[i], csv_rows[i], /*with_detail=*/false);
  }
}

// A plan whose collision check was skipped claims nothing: every row
// codec carries collision_free=false beside verified=false, and the
// batch still counts as ok (the skipped check is not a failure).
TEST(ReportSerialization, UnverifiedRowsReportNoCollisionVerdict) {
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};
  item.backends = {"tiling", "greedy"};
  item.verify = false;
  const BatchReport report = service.run({item});
  EXPECT_TRUE(report.all_ok());

  const auto csv_rows = parse_plan_results_csv(batch_report_to_csv(report));
  const auto json_rows =
      parse_plan_results_json(batch_report_to_json(report));
  ASSERT_EQ(csv_rows.size(), 2u);
  ASSERT_EQ(json_rows.size(), 2u);
  for (const auto* rows : {&csv_rows, &json_rows}) {
    for (const PlanResultRow& row : *rows) {
      EXPECT_TRUE(row.ok) << row.backend;
      EXPECT_FALSE(row.verified) << row.backend;
      EXPECT_FALSE(row.collision_free) << row.backend;
    }
  }
}

// Every PlanCounters member.
const std::pair<const char*, std::uint64_t PlanCounters::*> kCounts[] = {
    {"cache_hits", &PlanCounters::cache_hits},
    {"cache_misses", &PlanCounters::cache_misses},
    {"regions", &PlanCounters::regions},
    {"seam_sensors", &PlanCounters::seam_sensors},
    {"stitch_recolored", &PlanCounters::stitch_recolored},
};

/// Every field distinct and non-zero, so a swapped or dropped field
/// cannot pass unnoticed.
PlanCounters distinct_counters(std::uint64_t base) {
  PlanCounters c;
  std::uint64_t v = base;
  for (const auto& [name, member] : kCounts) c.*member = v++;
  return c;
}

void expect_counters(const PlanCounters& got, const PlanCounters& want,
                     const char* where) {
  for (const auto& [name, member] : kCounts) {
    EXPECT_EQ(got.*member, want.*member) << where << ": " << name;
  }
}

TEST(ReportSerialization, EveryPlanCounterRoundTripsThroughBothCodecs) {
  const PlanCounters want = distinct_counters(101);

  BatchReport report;
  static_cast<PlanCounters&>(report) = want;
  expect_counters(parse_batch_report_json(batch_report_to_json(report)), want,
                  "batch report JSON");

  serve::SessionWireStats stats;
  static_cast<PlanCounters&>(stats) = want;
  stats.replans = 1;
  stats.deltas = 2;
  stats.graph_builds = 3;
  stats.graph_patches = 4;
  stats.warm_greedy = 5;
  stats.regions_replanned = 6;
  const serve::SessionWireStats parsed =
      serve::session_stats_from_json(serve::session_stats_to_json(stats));
  expect_counters(parsed, want, "CLOSE body");
  EXPECT_EQ(parsed.replans, 1u);
  EXPECT_EQ(parsed.deltas, 2u);
  EXPECT_EQ(parsed.graph_builds, 3u);
  EXPECT_EQ(parsed.graph_patches, 4u);
  EXPECT_EQ(parsed.warm_greedy, 5u);
  EXPECT_EQ(parsed.regions_replanned, 6u);
}

TEST(ReportSerialization, PlanCountersMergeSumsAndMaxesRegions) {
  const PlanCounters a = distinct_counters(101);
  PlanCounters b = distinct_counters(1001);
  b.regions = 1;  // smaller than a's: the merge keeps the max, not b's
  PlanCounters merged = a;
  merged += b;
  for (const auto& [name, member] : kCounts) {
    const std::uint64_t want = member == &PlanCounters::regions
                                   ? a.*member
                                   : a.*member + b.*member;
    EXPECT_EQ(merged.*member, want) << name;
  }
}

TEST(ReportSerialization, ScheduleCsvRoundTripWithChannelColumns) {
  const auto results = sample_results(4);
  const PlanResult& tiling = results.front();
  ASSERT_TRUE(tiling.channel_slots.has_value());
  static const Deployment d =
      Deployment::grid(Box::cube(2, 0, 5), shapes::chebyshev_ball(2, 1));

  const std::string csv =
      schedule_to_csv(d, tiling.slots, &*tiling.channel_slots);
  EXPECT_NE(csv.find("type,slot,period,channel,channels"),
            std::string::npos);
  const ParsedSchedule parsed = parse_schedule_csv(csv);
  ASSERT_EQ(parsed.positions.size(), d.size());
  EXPECT_EQ(parsed.positions, d.positions());
  ASSERT_TRUE(parsed.channels.has_value());
  EXPECT_EQ(parsed.channels->channels, 4u);
  EXPECT_EQ(parsed.channels->period, tiling.channel_slots->period);
  EXPECT_EQ(parsed.channels->assignment, tiling.channel_slots->assignment);
  EXPECT_EQ(parsed.slots.period, tiling.channel_slots->period);

  // The single-channel form still round-trips without the new columns.
  const std::string plain = schedule_to_csv(d, tiling.slots);
  EXPECT_EQ(plain.find("channel"), std::string::npos);
  const ParsedSchedule plain_parsed = parse_schedule_csv(plain);
  EXPECT_FALSE(plain_parsed.channels.has_value());
  EXPECT_EQ(plain_parsed.slots.slot, tiling.slots.slot);
}

TEST(ReportSerialization, DynamicItemsRoundTripWithStepColumn) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  params.steps = 2;
  std::vector<BatchItem> items;
  BatchItem dynamic;
  dynamic.query = ScenarioQuery{"grid-failures", params};
  dynamic.backends = {"tiling", "tdma"};
  items.push_back(dynamic);
  BatchItem still;  // a static item in the same batch keeps step 0 rows
  still.query = ScenarioQuery{"grid", params};
  still.backends = {"tdma"};
  items.push_back(still);
  const BatchReport report = service.run(items);
  set_parallel_threads(0);
  ASSERT_TRUE(report.all_ok());
  ASSERT_EQ(report.items[0].steps.size(), 3u);

  // CSV: one row per (step, backend), step column populated.
  const std::string csv = batch_report_to_csv(report);
  const auto csv_rows = parse_plan_results_csv(csv);
  ASSERT_EQ(csv_rows.size(), 3u * 2u + 1u);
  EXPECT_EQ(csv_rows[0].step, 0u);
  EXPECT_EQ(csv_rows[2].step, 1u);
  EXPECT_EQ(csv_rows[4].step, 2u);
  EXPECT_EQ(csv_rows.back().step, 0u);  // the static item
  EXPECT_GT(csv_rows[0].sensors, csv_rows[2].sensors)
      << "per-step rows must carry the shrinking fleet";

  // JSON: emit -> parse -> emit is the identity, steps included (the
  // distributed merge path depends on this).
  const std::string json = batch_report_to_json(report);
  EXPECT_NE(json.find("\"steps\": 3"), std::string::npos);
  const BatchReport parsed = parse_batch_report_json(json);
  ASSERT_EQ(parsed.items.size(), 2u);
  ASSERT_EQ(parsed.items[0].steps.size(), 3u);
  EXPECT_EQ(parsed.items[0].steps[1].step, 1u);
  EXPECT_EQ(parsed.items[0].steps[1].results.size(), 2u);
  EXPECT_TRUE(parsed.items[1].steps.empty());
  ASSERT_EQ(parsed.items[0].results.size(), 2u);  // final step mirror
  EXPECT_EQ(batch_report_to_json(parsed), json);
}

// Golden-file pin of the driver's `--format json` report shape: the
// test rebuilds the exact batch `latticesched --scenario grid --n 6
// --backends tiling,tdma --threads 1 --format json` runs and compares
// the serialized report (wall times zeroed) against the checked-in
// golden file.
TEST(ReportSerialization, GoldenDriverJson) {
  set_parallel_threads(1);
  PlanService service;
  ScenarioParams params;
  params.n = 6;
  BatchItem item;
  item.query = ScenarioQuery{"grid", params};
  item.backends = {"tiling", "tdma"};
  BatchReport report = service.run({item});
  set_parallel_threads(0);
  // Zero the volatile fields so the serialization is reproducible.
  report.wall_seconds = 0.0;
  for (BatchItemReport& it : report.items) {
    for (PlanResult& r : it.results) r.wall_seconds = 0.0;
  }
  const std::string json = batch_report_to_json(report);

  const std::string path = std::string(LATTICESCHED_SOURCE_DIR) +
                           "/tests/golden/driver_grid_json.golden";
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path;
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "driver JSON schema changed; regenerate " << path;
}

// Golden-file pin of every registry row: `latticesched --scenario all
// --n 16 --format csv` with the wall_ms column cut out must match the
// checked-in table byte for byte (regenerate with the same command
// piped through `cut -d, -f1-12,14-`).
TEST(ReportSerialization, GoldenRegistryCsv) {
  const std::string command = std::string("'") + LATTICESCHED_CLI_PATH +
                              "' --scenario all --n 16 --format csv "
                              "--threads 2 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string csv;
  char buffer[4096];
  while (const std::size_t got = std::fread(buffer, 1, sizeof buffer, pipe)) {
    csv.append(buffer, got);
  }
  ASSERT_EQ(::pclose(pipe), 0) << command;

  // Drop field 13 (wall_ms); no field before it holds a comma.
  std::istringstream lines(csv);
  std::ostringstream stripped;
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t from = 0;
    for (int field = 0; field < 12 && from != std::string::npos; ++field) {
      from = line.find(',', from);
      if (from != std::string::npos) ++from;
    }
    ASSERT_NE(from, std::string::npos) << line;
    const std::size_t to = line.find(',', from);
    ASSERT_NE(to, std::string::npos) << line;
    stripped << line.substr(0, from) << line.substr(to + 1) << '\n';
  }

  const std::string path = std::string(LATTICESCHED_SOURCE_DIR) +
                           "/tests/golden/registry_n16_csv.golden";
  std::ifstream is(path);
  ASSERT_TRUE(is) << "missing golden file " << path;
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(stripped.str(), golden.str())
      << "a registry row changed; regenerate " << path;
}

}  // namespace
}  // namespace latticesched

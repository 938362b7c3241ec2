// The plan-search counters every reporting surface carries: tiling-cache
// traffic and region-greedy warm repairs.  BatchReport,
// PlanSession::Stats (and so the serve CLOSE body) and the coordinator's
// per-worker stats derive from PlanCounters and move it only through the
// functions below: one merge, one snapshot delta and one codec, all
// driven by the field table in plan_counters.cpp.  A new counter is one
// member here plus one row there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/tiling_cache.hpp"

namespace latticesched {

struct PlanCounters {
  std::uint64_t cache_hits = 0;    ///< TilingCache hits
  std::uint64_t cache_misses = 0;  ///< TilingCache misses
  std::uint64_t regions = 0;       ///< largest region partition planned
  /// Always 0: no plan stitches seams.  Kept so every reader of the
  /// wire and report format still finds the field.
  std::uint64_t seam_sensors = 0;
  /// Sensors a warm region repair moved off a color they already held
  /// (dirty sensors entering the repair uncolored are not recolors).
  std::uint64_t stitch_recolored = 0;

  /// The one merge: sums every count and keeps the max of `regions`.
  PlanCounters& operator+=(const PlanCounters& other);
};

/// Tiling-cache traffic between two snapshots of its stats, taken
/// before and after some planning work.  The region counters stay 0:
/// sessions count those.
PlanCounters counters_between(const TilingCache::Stats& before,
                              const TilingCache::Stats& after);

/// Batch-report footer: one line per counter group, each indented two
/// spaces and ending ",\n":
///   "cache": {"hits": H, "misses": M},
///   "regions": {"count": R, "seam_sensors": E, "stitch_recolored": C},
void write_counter_groups(std::ostream& os, const PlanCounters& counters);

/// When `line` is one of the footer lines above, reads its fields into
/// `counters` and returns the group name; returns "" for any other line.
std::string_view read_counter_group(std::string_view line,
                                    PlanCounters* counters);

/// Flat form keyed by member name (the serve CLOSE body):
/// `"cache_hits": 1, "cache_misses": 0, ..., "stitch_recolored": 0`.
/// The reader throws std::invalid_argument on a missing or bad field.
std::string counter_fields_to_json(const PlanCounters& counters);
void counter_fields_from_json(std::string_view obj, PlanCounters* counters);

}  // namespace latticesched

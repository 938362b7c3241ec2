#include "core/plan_counters.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace latticesched {

namespace {

enum Merge { kSum, kMax };

/// One counter: where it sits in the batch-report footer (`group`,
/// `key`), its flat key (`name`, the member name), how two values merge,
/// and the member.
struct Field {
  const char* group;
  const char* key;
  const char* name;
  Merge merge;
  std::uint64_t PlanCounters::*count;
};

using C = PlanCounters;

// Rows of one group are contiguous; the order is the emitted order.
const Field kFields[] = {
    {"cache", "hits", "cache_hits", kSum, &C::cache_hits},
    {"cache", "misses", "cache_misses", kSum, &C::cache_misses},
    {"regions", "count", "regions", kMax, &C::regions},
    {"regions", "seam_sensors", "seam_sensors", kSum, &C::seam_sensors},
    {"regions", "stitch_recolored", "stitch_recolored", kSum,
     &C::stitch_recolored},
};

void write_value(std::ostream& os, const Field& f, const PlanCounters& c,
                 const char* key) {
  os << '"' << key << "\": " << c.*f.count;
}

void read_value(std::string_view obj, const Field& f, PlanCounters* c,
                const char* key) {
  c->*f.count = json_uint_field(obj, key);
}

}  // namespace

PlanCounters& PlanCounters::operator+=(const PlanCounters& other) {
  for (const Field& f : kFields) {
    this->*f.count = f.merge == kSum
                         ? this->*f.count + other.*f.count
                         : std::max(this->*f.count, other.*f.count);
  }
  return *this;
}

PlanCounters counters_between(const TilingCache::Stats& before,
                              const TilingCache::Stats& after) {
  PlanCounters c;
  c.cache_hits = after.hits - before.hits;
  c.cache_misses = after.misses - before.misses;
  return c;
}

void write_counter_groups(std::ostream& os, const PlanCounters& counters) {
  std::string_view open;
  for (const Field& f : kFields) {
    if (open != f.group) {
      if (!open.empty()) os << "},\n";
      os << "  \"" << f.group << "\": {";
      open = f.group;
    } else {
      os << ", ";
    }
    write_value(os, f, counters, f.key);
  }
  os << "},\n";
}

std::string_view read_counter_group(std::string_view line,
                                    PlanCounters* counters) {
  for (const Field& f : kFields) {
    const std::string opener = std::string("\"") + f.group + "\": {";
    if (line.find(opener) == std::string_view::npos) continue;
    for (const Field& g : kFields) {
      if (std::string_view(g.group) == f.group) {
        read_value(line, g, counters, g.key);
      }
    }
    return f.group;
  }
  return {};
}

std::string counter_fields_to_json(const PlanCounters& counters) {
  std::ostringstream os;
  for (const Field& f : kFields) {
    if (&f != kFields) os << ", ";
    write_value(os, f, counters, f.name);
  }
  return os.str();
}

void counter_fields_from_json(std::string_view obj, PlanCounters* counters) {
  for (const Field& f : kFields) read_value(obj, f, counters, f.name);
}

}  // namespace latticesched

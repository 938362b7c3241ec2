// perfbench: the repository benchmark binary.
//
//   perfbench --workload sweep|serve|million|fleet --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Runs one workload through the library's public entry points, checks
// every output, and prints a run log followed by one JSON line:
//
//   {"attempted": A, "failed": F, "failures": [...], "values": {...}}
//
// With --trace 0 the values are the end-to-end metrics of the timed
// loop; with --trace 1 they are the per-layer metrics of the traced run.
// run.py (the benchmark command) builds this binary, attaches units from
// BENCHMARK.json and prints the result line.  NOTES.md defines every
// workload and metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Tail summarize(const latticesched::SampleSet& samples) {
  Tail t;
  t.n = samples.count();
  if (t.n == 0) return t;
  t.p50 = samples.percentile(50.0);
  t.max = samples.max();
  // Exactly ten samples lie beyond the (1 - 10/n) quantile.  Below 20
  // samples no quantile above the median has ten beyond it, so the tail
  // is the median itself.
  const double n = static_cast<double>(t.n);
  t.tail_pct = std::min(99.0, std::max(50.0, 100.0 * (1.0 - 10.0 / n)));
  t.tail = samples.percentile(t.tail_pct);
  return t;
}

void print_tail(const std::string& name, const Tail& t, const char* unit) {
  std::printf("%s: n=%zu p50=%.6g %s p%.4g=%.6g %s max=%.6g %s\n",
              name.c_str(), t.n, t.p50, unit, t.tail_pct, t.tail, unit,
              t.max, unit);
}

std::uint64_t io_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0, total = 0;
  while (in >> key >> value) {
    if (key == "rchar:") total = value;
  }
  return total;
}

void set_trace_fracs(Outcome& out, const std::vector<Span>& spans,
                     const std::string& root, double untraced_ms,
                     double traced_ms) {
  const std::map<std::string, double> self = self_ms_by_name(spans);
  const auto it = self.find(root);
  const double root_self_ms = it == self.end() ? 0.0 : it->second;
  out.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
  out.set("trace.unattributed_frac", root_self_ms / untraced_ms);
  std::printf("trace: %zu span(s); untraced %.2f ms, traced %.2f ms, "
              "unattributed %.2f ms\n",
              spans.size(), untraced_ms, traced_ms, root_self_ms);
}

void dump_trace(const Options& opts, const std::vector<Span>& spans) {
  if (opts.trace_dir.empty()) return;
  const std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
  if (write_chrome_trace(path, spans)) {
    std::printf("trace written to %s\n", path.c_str());
  } else {
    std::printf("could not write %s\n", path.c_str());
  }
}

namespace {

/// Aggregate CPU time of the machine in clock ticks, and the part the
/// hypervisor stole from it (the first eight fields of /proc/stat's "cpu"
/// line; steal is the eighth).  Zeros where unavailable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && label == "cpu" && in >> value; ++field) {
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep|serve|million|fleet --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && opts.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else if (flag == "--trace-dir") {
      opts.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  Outcome out;
  const CpuTicks ticks0 = cpu_ticks();
  try {
    if (opts.workload == "sweep") {
      run_sweep(opts, out);
    } else if (opts.workload == "serve") {
      run_serve(opts, out);
    } else if (opts.workload == "million") {
      run_million(opts, out);
    } else if (opts.workload == "fleet") {
      run_fleet(opts, out);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 opts.workload.c_str(), e.what());
    return 1;
  }
  // Time stolen by the hypervisor slows every workload and explains
  // outlying runs; the log records it beside the figures.
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    std::printf("host CPU steal during this run: %.1f%% of CPU time\n",
                100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total));
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: no output was checked\n");
    return 1;
  }
  const double failed_frac =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  if (opts.trace) out.set("failed_frac", failed_frac);
  std::printf("failed_frac = %llu / %llu = %.6f\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted), failed_frac);
  for (const std::string& f : out.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }

  std::ostringstream os;
  os << "{\"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << json_escape(out.failures[i]) << '"';
  }
  os << "], \"values\": {";
  bool first = true;
  for (const auto& [name, value] : out.values) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << (first ? "" : ", ") << '"' << name << "\": " << buf;
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

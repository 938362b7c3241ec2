// Shared pieces of the benchmark binary: options, the outcome record
// (checked operations plus named metrics), latency summaries and the
// workload entry points.  NOTES.md defines every workload and metric.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of the timed loop(s)
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// What one run observed: checked operations (every output check counts
/// one attempt; a failed check counts one failure) and metric values.
class Outcome {
 public:
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values[name] = value; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> values;
};

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

inline double median(std::vector<double> xs) {
  latticesched::SampleSet s;
  for (double x : xs) s.add(x);
  return s.percentile(50.0);
}

/// A latency distribution as the benchmark reports it: the median and
/// the highest percentile (at most p99) that still has at least ten
/// samples beyond it, which is the median itself below 20 samples.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  double max = 0.0;
  std::size_t n = 0;
};
Tail summarize(const latticesched::SampleSet& samples);

/// Prints "name: n=..., p50=..., pXX=..." on stdout (the run log).
void print_tail(const std::string& name, const Tail& t, const char* unit);

/// Bytes this process has read through read-family syscalls so far
/// (/proc/self/io rchar; 0 where unavailable).  The wire layers receive
/// with read(2), so this counts every byte this process received.
std::uint64_t io_bytes();

/// Workloads.  Each runs its timed loop (or, with opts.trace, its traced
/// passes), checks every output and fills `out`.
void run_sweep(const Options& opts, Outcome& out);
void run_fleet(const Options& opts, Outcome& out);
void run_million(const Options& opts, Outcome& out);
void run_serve(const Options& opts, Outcome& out);

/// Untraced and traced walls of one pass of work, and the kept trace.
struct PassTimes {
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  int kept = 0;  ///< which traced pass (0 or 1) `trace` holds
  Trace trace;
};

/// Runs `pass` (a callable taking Trace* and returning its wall in ms)
/// untraced and traced twice each, in the order U T T U so that neither
/// kind always runs first, and keeps the faster wall of each kind (machine
/// noise only ever adds time) plus the spans of the faster traced pass.
template <typename Pass>
PassTimes time_passes(Pass&& pass) {
  PassTimes t;
  t.untraced_ms = t.traced_ms = 1e300;
  for (int round = 0; round < 2; ++round) {
    if (round == 0) t.untraced_ms = std::min(t.untraced_ms, pass(nullptr));
    Trace trace;
    const double ms = pass(&trace);
    if (ms < t.traced_ms) {
      t.traced_ms = ms;
      t.kept = round;
      t.trace = std::move(trace);
    }
    if (round == 1) t.untraced_ms = std::min(t.untraced_ms, pass(nullptr));
  }
  return t;
}

/// Sets trace.overhead_frac (traced ÷ untraced wall − 1) and
/// trace.unattributed_frac (self time of the `root` spans, i.e. the part
/// of the traced pass no named-layer span covers, ÷ the untraced wall)
/// from an untraced and a traced pass over identical work.
void set_trace_fracs(Outcome& out, const std::vector<Span>& spans,
                     const std::string& root, double untraced_ms,
                     double traced_ms);

/// Writes the spans to <trace_dir>/<workload>-seed<seed>.trace.json.
void dump_trace(const Options& opts, const std::vector<Span>& spans);

}  // namespace perfbench

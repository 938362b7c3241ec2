// In-memory span recorder for the traced benchmark runs.
//
// Spans are recorded by the benchmark's own code around its calls into
// the library's public functions (scenario build, conflict graph,
// planner, collision check, report codec, session, server round-trips,
// coordinator).  Each span keeps its name, start, end and parent; they
// stay in memory until the run ends, when write_chrome_trace() dumps them
// in Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A Trace belongs to one thread: spans nest through an open-span stack,
// so a child always lies inside its parent.  Threads that record spans
// concurrently each own a Trace sharing one epoch, and the caller merges
// them afterwards.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the trace epoch
  double end_us = 0.0;
  long parent = -1;       ///< index into the same span list; -1 = root
  int thread = 0;

  double ms() const { return (end_us - start_us) / 1000.0; }
};

class Trace {
 public:
  explicit Trace(int thread = 0, Clock::time_point epoch = Clock::now())
      : thread_(thread), epoch_(epoch) {}

  std::size_t open(std::string name);
  void close(std::size_t id);

  /// Appends another thread's finished spans (parents re-indexed).
  void merge(const Trace& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const;

  int thread_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span.  A null trace records nothing, so the untraced pass runs
/// the identical code with tracing off.
class Scope {
 public:
  Scope(Trace* trace, std::string name)
      : trace_(trace),
        id_(trace != nullptr ? trace->open(std::move(name)) : 0) {}
  ~Scope() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* trace_;
  std::size_t id_;
};

/// Per span name: summed self time (ms), i.e. each span's duration minus
/// the part its children cover.
std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans);

/// Per span name: every span's full duration (ms), in record order.
std::map<std::string, std::vector<double>> durations_ms_by_name(
    const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events, parent index
/// in args).  Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench

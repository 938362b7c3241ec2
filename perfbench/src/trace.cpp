#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::size_t Trace::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  span.thread = thread_;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::close(std::size_t id) {
  spans_[id].end_us = now_us();
  // Scopes close in reverse order of opening, so `id` is the stack top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Trace::merge(const Trace& other) {
  const long offset = static_cast<long>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) child_ms[span.parent] += span.ms();
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += spans[i].ms() - child_ms[i];
  }
  return self;
}

std::map<std::string, std::vector<double>> durations_ms_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans) out[span.name].push_back(span.ms());
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %ld}}",
                  s.thread, s.start_us, s.end_us - s.start_us, i, s.parent);
    os << "{\"name\": \"" << s.name << "\", " << buf
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

// Span recorder, Chrome trace-event writer, self-time summariser, and the
// small statistics and comparison helpers every workload shares.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "support/check.hpp"

namespace temco::bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

bool same_bytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape() ||
        std::memcmp(a[i].data(), b[i].data(), static_cast<std::size_t>(a[i].bytes())) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

std::unique_ptr<Tracer>& tracer_slot() {
  static std::unique_ptr<Tracer> tracer;
  return tracer;
}

/// Spans open on this thread, innermost last: the parent of a new span.
std::vector<int>& open_spans() {
  thread_local std::vector<int> stack;
  return stack;
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

void append_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

Tracer* Tracer::active() { return tracer_slot().get(); }

void Tracer::enable() {
  if (!tracer_slot()) tracer_slot() = std::make_unique<Tracer>();
}

int Tracer::begin(std::string name, std::string id) {
  std::vector<int>& stack = open_spans();
  const int parent = stack.empty() ? -1 : stack.back();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{std::move(name), std::move(id), Clock::now(), {}, parent, thread_index()});
  }
  stack.push_back(index);
  return index;
}

void Tracer::end(int span) {
  const Clock::time_point now = Clock::now();
  std::vector<int>& stack = open_spans();
  if (!stack.empty() && stack.back() == span) stack.pop_back();  // RAII keeps spans nested
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end = now;
}

void Tracer::record(std::string name, std::string id, Clock::time_point start,
                    Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), std::move(id), start, end, -1, thread_index()});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const int c : children[i]) {
      const Span& child = spans_[static_cast<std::size_t>(c)];
      covered.emplace_back(std::max(child.start, span.start), std::min(child.end, span.end));
    }
    std::sort(covered.begin(), covered.end());
    Clock::duration busy{0};
    Clock::time_point reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const Clock::time_point from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    self[layer_of(span.name)] +=
        std::chrono::duration<double>(span.end - span.start - busy).count();
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  TEMCO_CHECK(f != nullptr) << "cannot write trace file " << path;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    line = "{\"name\": \"";
    append_escaped(line, span.name);
    line += "\", \"cat\": \"";
    append_escaped(line, layer_of(span.name));
    char numbers[160];
    std::snprintf(numbers, sizeof(numbers),
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": \"",
                  span.tid, us(span.start), us(span.end) - us(span.start), i, span.parent);
    line += numbers;
    append_escaped(line, span.id);
    line += "\"}}";
    if (i + 1 < spans_.size()) line += ',';
    line += '\n';
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

ScopedSpan::ScopedSpan(const char* name, std::string id) {
  Tracer* tracer = Tracer::active();
  if (tracer != nullptr && name != nullptr) span_ = tracer->begin(name, std::move(id));
}

ScopedSpan::~ScopedSpan() {
  if (span_ >= 0) Tracer::active()->end(span_);
}

}  // namespace temco::bench

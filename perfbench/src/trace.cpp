#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<int> open_spans;

int thread_number() {
  static std::mutex mutex;
  static std::map<std::thread::id, int> numbers;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = numbers.emplace(
      std::this_thread::get_id(), static_cast<int>(numbers.size()) + 1);
  return it->second;
}

thread_local const int this_thread_number = thread_number();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const char* name, long request, int parent) {
  if (parent < 0 && !open_spans.empty()) parent = open_spans.back();
  SpanRec rec;
  rec.name = name;
  rec.parent = parent;
  rec.request = request;
  rec.tid = this_thread_number;
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    rec.start_us = now_us();
    spans_.push_back(std::move(rec));
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double t = now_us();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<double> Tracer::self_times_locked() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.end_us < 0.0) continue;
    // Union of the children's intervals, clipped to the parent: children
    // on several threads (sweep jobs, client connections) may overlap.
    std::vector<std::pair<double, double>> iv;
    for (const int c : children[i]) {
      const SpanRec& k = spans_[static_cast<std::size_t>(c)];
      if (k.end_us < 0.0) continue;
      const double a = std::max(k.start_us, s.start_us);
      const double b = std::min(k.end_us, s.end_us);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times(
    std::size_t first_span) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<double> self = self_times_locked();
  std::map<std::string, LayerTime> out;
  for (std::size_t i = first_span; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.end_us < 0.0) continue;
    LayerTime& lt = out[s.name];
    lt.total_us += s.end_us - s.start_us;
    lt.self_us += self[i];
    ++lt.count;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times_locked();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.end_us < 0.0) continue;
    out << (first ? "" : ",\n");
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d",
                  s.start_us, s.end_us - s.start_us, s.tid);
    out << "{\"name\": \"" << json_escape(s.name) << "\", \"ph\": \"X\", "
        << buf << ", \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request;
    std::snprintf(buf, sizeof(buf), ", \"self_us\": %.3f}}", self[i]);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, long request, int parent) {
  Tracer& t = Tracer::global();
  if (t.enabled()) id_ = t.begin(name, request, parent);
}

Span::~Span() {
  if (id_ >= 0) Tracer::global().end(id_);
}

}  // namespace perfbench

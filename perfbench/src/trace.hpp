// The traced run's recorder: spans around every call the benchmark makes
// into a library layer, kept in memory and written once at exit as Chrome
// trace-event JSON (load it in chrome://tracing or ui.perfetto.dev).
//
// Each span has a name ("dist.bfs", "congest.run", ...), a start, an end,
// its parent span and a request id (the grid job, service request, circuit
// pass or engine run it belongs to). A layer's self time is its span time
// minus the union of its child spans. Where calls number in millions
// (on_round over a million nodes) the workloads keep per-instance
// accumulators instead and report them as per-layer metrics directly.
//
// With tracing off every Span is a no-op that reads no clock, so the
// untraced run measures the library alone.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static Tracer& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id. `parent` < 0 selects the innermost
  /// span open on the calling thread (none: a root span).
  int begin(const char* name, long request, int parent = -1);
  void end(int id);

  /// Per span name: summed duration, summed self time, and span count,
  /// over the spans recorded from index `first_span` on (a span_count()
  /// taken earlier), so one phase of a run can be summed on its own.
  struct LayerTime {
    double total_us = 0.0;
    double self_us = 0.0;
    long count = 0;
  };
  std::map<std::string, LayerTime> layer_times(
      std::size_t first_span = 0) const;

  std::size_t span_count() const;

  /// Writes every recorded span as Chrome trace-event JSON; false when the
  /// file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct SpanRec {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
    long request = -1;
    int tid = 0;
  };

  std::vector<double> self_times_locked() const;

  bool enabled_ = false;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<SpanRec> spans_;
};

/// RAII span on the global tracer; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, long request = -1, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Id of this span (-1 when tracing is off), for explicit parenting of
  /// spans opened on other threads.
  int id() const { return id_; }

 private:
  int id_ = -1;
};

}  // namespace perfbench

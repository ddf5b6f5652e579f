// Per-layer self time from the span tracer: on each thread, a span's self
// time is its duration minus the time its directly nested children cover.

#include <chrono>
#include <map>

#include "bench.h"
#include "skute/obs/trace.h"

namespace skutebench {

double TraceReport::Total(const char* name) const {
  const auto it = span_ms.find(name);
  return it == span_ms.end() ? 0.0 : it->second;
}

double TraceReport::CategoryTotal(const char* category) const {
  const auto it = category_ms.find(category);
  return it == category_ms.end() ? 0.0 : it->second;
}

TraceReport AnalyzeTrace() {
  using skute::obs::TraceEvent;
  const std::vector<TraceEvent> events =
      skute::obs::Tracer::Global().MergedEvents();
  TraceReport report;
  report.spans = events.size();
  const auto ms = [](const TraceEvent& e) {
    return std::chrono::duration<double, std::milli>(e.end - e.start).count();
  };
  std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    by_thread[e.tid].push_back(&e);
    report.span_ms[e.name] += ms(e);
    report.category_ms[e.category] += ms(e);
  }
  for (auto& entry : by_thread) {
    // Merged order is start ascending, longer first on ties, so a parent
    // always precedes the children it encloses.
    std::vector<const TraceEvent*> stack;
    std::vector<double> child_ms;
    const auto close = [&] {
      report.self_ms[stack.back()->category] +=
          ms(*stack.back()) - child_ms.back();
      const double done = ms(*stack.back());
      stack.pop_back();
      child_ms.pop_back();
      if (!child_ms.empty()) child_ms.back() += done;
    };
    for (const TraceEvent* e : entry.second) {
      while (!stack.empty() && stack.back()->end <= e->start) close();
      stack.push_back(e);
      child_ms.push_back(0.0);
    }
    while (!stack.empty()) close();
  }
  return report;
}

double MeasureSpanCostNs() {
  constexpr int kSpans = 200000;
  skute::obs::Tracer& tracer = skute::obs::Tracer::Global();
  tracer.Start();
  const double t0 = NowSeconds();
  for (int i = 0; i < kSpans; ++i) {
    skute::obs::TraceSpan span("calibrate", "span");
  }
  const double t1 = NowSeconds();
  tracer.Stop();
  tracer.Start();  // drop the calibration spans
  tracer.Stop();
  return (t1 - t0) * 1e9 / kSpans;
}

}  // namespace skutebench

// Scoped tracing spans with a Chrome trace_event exporter.
//
// A span brackets one phase of work — a solver pass, an observability
// sweep, a pipeline stage — and records {name, start, duration, depth} on
// the thread that ran it. Spans nest by construction order (RAII), so the
// exported trace shows the real call structure: load the JSON in
// chrome://tracing or https://ui.perfetto.dev and the solver/ELW/simulation
// phases appear as nested slices per thread. Naming conventions and the
// exporter schema are documented in docs/OBSERVABILITY.md.
//
// Cost model:
//  * Tracing is OFF at runtime until Tracer::start(); a dormant span is
//    one relaxed atomic load.
//  * Span names must be string literals (the tracer stores the pointer).
//
// Aggregation is per-thread buffers — lane 0 is the calling thread,
// worker lanes append to their own buffers — merged in registration
// (lane) order at export time. Start/stop/export must happen outside
// parallel regions: parallel_for joins every lane before returning, so
// between regions the buffers are quiescent.
#pragma once

#include <cstdint>
#include <string>

namespace serelin {

/// Global tracing session. All methods are static: there is one tracer
/// per process, matching the one thread pool per process.
class Tracer {
 public:
  /// True between start() and stop(): spans record themselves.
  static bool active();

  /// Clears every span buffer, re-zeroes the clock and enables recording.
  static void start();

  /// Stops recording (buffers keep their events for export).
  static void stop();

  /// Number of recorded events across all threads.
  static std::size_t event_count();

  /// The whole session as Chrome trace_event JSON (always valid JSON,
  /// `{"traceEvents": []}`-shaped when nothing was recorded).
  static std::string chrome_json();

  /// Writes chrome_json() to `path`; throws serelin::Error on I/O failure.
  static void write_chrome_json(const std::string& path);
};

/// RAII span: records one complete trace event from construction to
/// destruction on the current thread. `name` must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null = tracer was dormant at entry
  std::uint64_t start_ns_ = 0;
  std::int32_t depth_ = 0;
};

}  // namespace serelin

#define SERELIN_TRACE_CAT2(a, b) a##b
#define SERELIN_TRACE_CAT(a, b) SERELIN_TRACE_CAT2(a, b)

/// Scoped span macro: a TraceSpan that lasts to the end of the enclosing
/// scope.
#define SERELIN_SPAN(name) \
  ::serelin::TraceSpan SERELIN_TRACE_CAT(serelin_span_, __LINE__)(name)

#include "support/trace.hpp"

#include <atomic>
#include <chrono>
#include <vector>

#include "support/annotations.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/sync.hpp"

namespace serelin {

namespace {

struct Event {
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
  std::int32_t depth;
};

/// Per-thread span storage. Owned by the registry (a thread that exits
/// leaves its events behind for export); tid is the registration index,
/// so export order is deterministic given a deterministic thread pool.
struct EventBuffer {
  int tid = 0;
  std::int32_t depth = 0;
  std::vector<Event> events;
};

struct Registry {
  Mutex mutex;
  /// Registration (tid) order. The *vector* is guarded; the pointed-to
  /// buffers are single-writer (each thread appends only to its own) and
  /// only read at start/export time, outside parallel regions, when the
  /// lanes have joined and the buffers are quiescent.
  std::vector<EventBuffer*> buffers SERELIN_GUARDED_BY(mutex);
  /// Session origin as nanoseconds since the steady_clock epoch. Atomic,
  /// not guarded: now_ns() reads it on the span hot path where taking the
  /// registry lock would serialize all tracing threads.
  std::atomic<std::int64_t> t0_ns{0};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

std::atomic<bool> g_active{false};

EventBuffer* register_buffer() {
  auto* buffer = new EventBuffer();
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  buffer->tid = static_cast<int>(r.buffers.size());
  r.buffers.push_back(buffer);
  return buffer;
}

EventBuffer& local_buffer() {
  thread_local EventBuffer* buffer = register_buffer();
  return *buffer;
}

std::uint64_t now_ns() {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<std::uint64_t>(
      now - registry().t0_ns.load(std::memory_order_relaxed));
}

/// Span names are string literals under our control, but escape anyway so
/// a stray quote can never corrupt the export.
void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
}

}  // namespace

TraceSpan::TraceSpan(const char* name) {
  if (!Tracer::active()) return;
  name_ = name;
  EventBuffer& buffer = local_buffer();
  depth_ = buffer.depth++;
  start_ns_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (!name_) return;
  const std::uint64_t end_ns = now_ns();
  EventBuffer& buffer = local_buffer();
  --buffer.depth;
  buffer.events.push_back({name_, start_ns_, end_ns - start_ns_, depth_});
}

bool Tracer::active() { return g_active.load(std::memory_order_relaxed); }

void Tracer::start() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (EventBuffer* buffer : r.buffers) {
    buffer->events.clear();
    buffer->depth = 0;
  }
  r.t0_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count(),
                std::memory_order_relaxed);
  g_active.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { g_active.store(false, std::memory_order_relaxed); }

std::size_t Tracer::event_count() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  std::size_t n = 0;
  for (const EventBuffer* buffer : r.buffers) n += buffer->events.size();
  return n;
}

std::string Tracer::chrome_json() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const EventBuffer* buffer : r.buffers) {
    for (const Event& e : buffer->events) {
      out += first ? "\n" : ",\n";
      first = false;
      // Complete events ("ph": "X"); ts/dur are microseconds per the
      // trace_event spec, fractional for sub-microsecond spans.
      out += "  {\"name\": \"";
      append_escaped(out, e.name);
      out += "\", \"cat\": \"serelin\", \"ph\": \"X\", \"ts\": ";
      out += std::to_string(static_cast<double>(e.ts_ns) / 1e3);
      out += ", \"dur\": ";
      out += std::to_string(static_cast<double>(e.dur_ns) / 1e3);
      out += ", \"pid\": 1, \"tid\": ";
      out += std::to_string(buffer->tid);
      out += ", \"args\": {\"depth\": ";
      out += std::to_string(e.depth);
      out += "}}";
    }
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) {
  // Atomic replace: a crash mid-write never leaves a truncated trace that
  // chrome://tracing half-loads.
  atomic_write_file(path, chrome_json());
}

}  // namespace serelin

//===- support/Trace.h - Process-wide execution tracing ---------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A zero-dependency trace recorder for the capture -> replay -> search
/// pipeline. Instrumentation sites open RAII spans
/// (`ROPT_TRACE_SPAN("capture.spool")`) and emit counter/instant events;
/// the recorder exports Chrome `trace_event`-format JSON (loadable in
/// chrome://tracing or https://ui.perfetto.dev) and a compact JSONL
/// stream. Recording is off by default and costs a single relaxed atomic
/// load per site while disabled.
///
/// Span and counter names must be string literals (the recorder stores
/// the pointer, not a copy). Naming convention: `layer.verb_or_noun`,
/// lower_snake within a dot-separated hierarchy — `capture.spool`,
/// `replay.run`, `search.generation`, `pipeline.optimize`.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_TRACE_H
#define ROPT_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ropt {

/// One recorded event, in the Chrome trace_event model.
struct TraceEvent {
  enum class Phase : uint8_t {
    Complete, ///< "ph":"X" — a span with a start and a duration.
    Counter,  ///< "ph":"C" — a sampled numeric series.
    Instant,  ///< "ph":"i" — a point-in-time marker.
  };
  Phase Ph = Phase::Complete;
  const char *Name = "";
  uint64_t StartUs = 0; ///< Microseconds since the recorder's epoch.
  uint64_t DurUs = 0;   ///< Complete events only.
  int64_t Value = 0;    ///< Counter value, or an optional span argument.
  bool HasValue = false;
  uint32_t ThreadId = 0; ///< Small dense id, 1-based per thread.
};

/// The process-wide recorder. All methods are thread-safe; recording
/// methods are no-ops (after one relaxed atomic load) while disabled.
class TraceRecorder {
public:
  static TraceRecorder &instance();

  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every recorded event (the epoch is unchanged); the dropped
  /// counter resets with the buffer.
  void clear();

  /// The in-memory buffer is bounded: past \p Cap events the oldest are
  /// dropped first, so week-long fleet runs cannot grow without limit.
  /// The default cap is one million events (~40 MB). A cap of 0 keeps
  /// exactly one event (the cap is clamped to >= 1, not unlimited).
  static constexpr size_t DefaultMaxEvents = 1000000;
  void setMaxEvents(size_t Cap);
  size_t maxEvents() const;
  /// Events evicted oldest-first since the last clear(); also exported
  /// as the `trace.dropped_events` metrics counter.
  uint64_t droppedEvents() const;

  /// Microseconds since the recorder was constructed.
  uint64_t nowUs() const;

  /// Registers a human-readable name for the calling thread (e.g.
  /// "worker-3"); exported as Chrome "M" thread_name metadata so Perfetto
  /// lanes are labeled instead of dense numeric ids. Unlike event
  /// recording this works while disabled — names are metadata, and a
  /// thread registers once at start-up.
  void setCurrentThreadName(const std::string &Name);

  /// Registered names by dense thread id (for tests and exporters).
  std::map<uint32_t, std::string> threadNames() const;

  /// Records a finished span. \p Value attaches an optional argument
  /// (e.g. a generation index) when \p HasValue is set.
  void recordComplete(const char *Name, uint64_t StartUs, uint64_t DurUs,
                      int64_t Value = 0, bool HasValue = false);
  void recordCounter(const char *Name, int64_t Value);
  void recordInstant(const char *Name);

  size_t eventCount() const;
  /// Snapshot copy of the event list, in recording order.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string toChromeJson() const;
  /// One compact JSON object per line, same fields as the Chrome export.
  std::string toJsonl() const;
  /// Write either format to \p Path; false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;
  bool writeJsonl(const std::string &Path) const;

private:
  TraceRecorder();

  /// Appends under the lock, evicting the oldest event past MaxEvents.
  void append(const TraceEvent &E);

  std::atomic<bool> Enabled{false};
  uint64_t EpochNs = 0;
  mutable std::mutex Mutex;
  std::deque<TraceEvent> Events;
  size_t MaxEvents = DefaultMaxEvents;
  uint64_t DroppedEvents = 0;
  std::map<uint32_t, std::string> ThreadNames;
};

/// RAII span: stamps the start on construction, records a Complete event
/// on destruction. Inert (no clock read) when the recorder is disabled at
/// construction time.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) {
    TraceRecorder &T = TraceRecorder::instance();
    if (!T.enabled())
      return;
    Rec = &T;
    this->Name = Name;
    StartUs = T.nowUs();
  }
  ScopedSpan(const char *Name, int64_t Value) : ScopedSpan(Name) {
    this->Value = Value;
    HasValue = true;
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (Rec)
      Rec->recordComplete(Name, StartUs, Rec->nowUs() - StartUs, Value,
                          HasValue);
  }

private:
  TraceRecorder *Rec = nullptr;
  const char *Name = "";
  uint64_t StartUs = 0;
  int64_t Value = 0;
  bool HasValue = false;
};

} // namespace ropt

#define ROPT_TRACE_CONCAT_IMPL(A, B) A##B
#define ROPT_TRACE_CONCAT(A, B) ROPT_TRACE_CONCAT_IMPL(A, B)

/// Opens a span covering the rest of the enclosing scope.
#define ROPT_TRACE_SPAN(NameLiteral)                                         \
  ::ropt::ScopedSpan ROPT_TRACE_CONCAT(RoptTraceSpan, __LINE__)(NameLiteral)
/// Span with an attached integer argument (shown in the trace viewer).
#define ROPT_TRACE_SPAN_V(NameLiteral, Value)                                \
  ::ropt::ScopedSpan ROPT_TRACE_CONCAT(RoptTraceSpan,                        \
                                       __LINE__)(NameLiteral,                \
                                                 static_cast<int64_t>(Value))
#define ROPT_TRACE_COUNTER(NameLiteral, Value)                               \
  do {                                                                       \
    ::ropt::TraceRecorder &RoptTraceRec = ::ropt::TraceRecorder::instance(); \
    if (RoptTraceRec.enabled())                                              \
      RoptTraceRec.recordCounter(NameLiteral,                                \
                                 static_cast<int64_t>(Value));               \
  } while (false)
#define ROPT_TRACE_INSTANT(NameLiteral)                                      \
  do {                                                                       \
    ::ropt::TraceRecorder &RoptTraceRec = ::ropt::TraceRecorder::instance(); \
    if (RoptTraceRec.enabled())                                              \
      RoptTraceRec.recordInstant(NameLiteral);                               \
  } while (false)

#endif // ROPT_SUPPORT_TRACE_H

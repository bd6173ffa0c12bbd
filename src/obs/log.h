// Leveled structured logging and the flight recorder.
//
// Every log site takes an interned Event id from names.h (lint rule 6 —
// no ad-hoc name strings) plus a small fixed context: status code,
// archive offset, frame index, section name, free-text detail. A record
// that fires lands in the calling thread's slot of the flight recorder —
// a bounded per-thread ring buffer that is always on — and, when a
// streaming sink is installed (CLI --log=out.jsonl), is also rendered as
// one JSON line.
//
// Cost contract (same discipline as obs/telemetry.h): a site whose level
// is below the threshold is one relaxed atomic load and a compare —
// nothing else — so info/trace sites can sit on hot paths and stay
// within the <500 ns disabled-site budget (tests/test_obs.cpp). Error
// and warn records are always captured (the default threshold), which is
// what makes the ring a flight recorder: when a decode fails, the last
// few hundred events are already there, no flag required.
//
// Breadcrumbs: obs::ScopedSpan (obs/trace.h), the one span scope, keeps
// a small thread-local span stack unconditionally (two TLS writes per
// scope), so an error record snapshots which spans were active on the
// failing thread. The most recent error-level record is additionally
// kept aside and rendered by last_error_report() — the backing for
// dpz_last_error_report and the CLI --diagnose flag. Logging never
// reads or writes the data being compressed, so output bytes are
// identical with any level installed (the determinism suite runs with
// logging on as proof).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/names.h"
#include "util/annotated_mutex.h"
#include "util/error.h"

namespace dpz::obs {

/// Severity of a log record. Lower value = more severe; a record fires
/// when its level is <= the installed threshold.
enum class LogLevel : std::uint8_t {
  kError = 0,  ///< an operation failed (always recorded by default)
  kWarn = 1,   ///< recovered anomaly, e.g. an absorbed injected fault
  kInfo = 2,   ///< coarse progress events (command dispatch, ...)
  kTrace = 3,  ///< everything
};

namespace detail {
/// The log threshold. Defaults to kWarn so the flight recorder captures
/// error and warn records with no configuration — "always on".
inline std::atomic<std::uint8_t> g_log_level{
    static_cast<std::uint8_t>(LogLevel::kWarn)};

/// Breadcrumb span stack for the calling thread. Maintained by every
/// ScopedSpan regardless of the telemetry switch and stage sink; depth may
/// run past the fixed capacity (deep nesting), in which case the
/// overflowing ids are simply not named in breadcrumbs.
inline constexpr std::size_t kSpanStackCapacity = 16;
struct SpanStack {
  Span ids[kSpanStackCapacity];
  std::uint32_t depth = 0;
};
inline thread_local SpanStack t_span_stack;

inline void span_push(Span id) {
  SpanStack& s = t_span_stack;
  if (s.depth < kSpanStackCapacity) s.ids[s.depth] = id;
  ++s.depth;
}
inline void span_pop() { --t_span_stack.depth; }
}  // namespace detail

/// The installed threshold.
inline LogLevel log_level() {
  return static_cast<LogLevel>(
      detail::g_log_level.load(std::memory_order_relaxed));
}

/// True when a record at `level` would fire. This is the entire cost of
/// a disabled site.
inline bool log_enabled(LogLevel level) {
  return static_cast<std::uint8_t>(level) <=
         detail::g_log_level.load(std::memory_order_relaxed);
}

/// Installs a new threshold. Safe from any thread at any time; sites
/// racing with the flip either record or skip, both fine.
inline void set_log_level(LogLevel level) {
  detail::g_log_level.store(static_cast<std::uint8_t>(level),
                            std::memory_order_relaxed);
}

/// Parses "error" / "warn" / "info" / "trace" (case-sensitive). Returns
/// false (and leaves `out` alone) for anything else.
bool parse_log_level(std::string_view text, LogLevel* out);

/// Applies the DPZ_LOG_LEVEL environment variable when set to a valid
/// level name; returns true when it changed the threshold.
bool set_log_level_from_env();

/// RAII threshold override for tests and scoped CLI enablement.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : previous_(log_level()) {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(previous_); }

  ScopedLogLevel(const ScopedLogLevel&) = delete;
  ScopedLogLevel& operator=(const ScopedLogLevel&) = delete;

 private:
  LogLevel previous_;
};

/// Optional structured context for a record. All fields are optional;
/// kNoValue / nullptr mean "not applicable" and are omitted from output.
struct LogContext {
  static constexpr std::uint64_t kNoValue = ~0ULL;
  std::uint64_t offset = kNoValue;  ///< failing archive byte offset
  std::uint64_t frame = kNoValue;   ///< failing frame index
  const char* section = nullptr;    ///< failing section name
};

/// Process-wide log sink: per-thread bounded rings (the flight recorder)
/// plus an optional streaming JSONL sink. All members are safe to call
/// from any thread.
class FlightRecorder {
 public:
  /// Records each thread can hold before the ring wraps.
  static constexpr std::size_t kRingCapacity = 256;
  /// Ring records rendered in a breadcrumb report.
  static constexpr std::size_t kReportRecords = 16;

  /// One fixed-size, trivially-copyable record — no allocation on the
  /// recording path once a thread's ring exists.
  struct Record {
    std::uint64_t ts_ns = 0;
    std::uint64_t offset = LogContext::kNoValue;
    std::uint64_t frame = LogContext::kNoValue;
    std::uint32_t tid = 0;
    Event event = Event::kErrorRaised;
    LogLevel level = LogLevel::kError;
    std::uint8_t status = 0;        ///< StatusCode of the failure
    std::uint8_t span_depth = 0;    ///< breadcrumb entries captured
    Span spans[detail::kSpanStackCapacity] = {};
    char section[24] = {};
    char detail[104] = {};
  };

  static FlightRecorder& instance();

  /// Appends a record for the calling thread (and streams it to the
  /// sink when one is installed). Call through log_event(), which
  /// applies the level threshold first.
  void record(Event event, LogLevel level, StatusCode status,
              const LogContext& ctx, std::string_view detail_text);

  /// Drops every record, including the saved last error.
  void clear();

  /// Every held record, oldest first (merged across threads by
  /// timestamp).
  [[nodiscard]] std::vector<Record> snapshot() const;

  /// Renders the rings as JSON lines, oldest record first.
  void write_jsonl(std::ostream& out) const;

  /// True when an error-level record has been captured since the last
  /// clear().
  [[nodiscard]] bool has_last_error() const;

  /// Multi-line human-readable report: the most recent error-level
  /// record (event, status, section, archive offset, frame index, span
  /// stack) followed by the trailing ring records as breadcrumbs.
  /// Empty when no error has been recorded.
  [[nodiscard]] std::string last_error_report() const;

  /// Installs (or, with nullptr, removes) the streaming JSONL sink.
  /// The stream must outlive the installation; use LogSinkScope.
  void set_sink(std::ostream* sink);

 private:
  struct ThreadRing;

  FlightRecorder() = default;

  ThreadRing& local_ring();

  mutable Mutex registry_m_;
  std::vector<std::unique_ptr<ThreadRing>> rings_
      DPZ_GUARDED_BY(registry_m_);

  mutable Mutex last_error_m_;
  Record last_error_ DPZ_GUARDED_BY(last_error_m_);
  bool has_last_error_ DPZ_GUARDED_BY(last_error_m_) = false;

  mutable Mutex sink_m_;
  std::ostream* sink_ DPZ_GUARDED_BY(sink_m_) = nullptr;
};

/// Emits one structured record when `level` passes the threshold. The
/// disabled path is a single relaxed load.
inline void log_event(Event event, LogLevel level, StatusCode status,
                      const LogContext& ctx = {},
                      std::string_view detail_text = {}) {
  if (!log_enabled(level)) return;
  FlightRecorder::instance().record(event, level, status, ctx,
                                    detail_text);
}

/// Error-level convenience: these fire under the default threshold, so
/// every error path leaves breadcrumbs with no configuration.
inline void log_error(Event event, StatusCode status,
                      const LogContext& ctx = {},
                      std::string_view detail_text = {}) {
  log_event(event, LogLevel::kError, status, ctx, detail_text);
}

/// RAII streaming sink: opens `path`, installs it, and (when the
/// threshold is still at the always-on default) raises the level to
/// kInfo so the file actually sees progress events. Both are restored
/// on destruction.
class LogSinkScope {
 public:
  explicit LogSinkScope(const std::string& path);
  ~LogSinkScope();

  /// False when the file could not be opened (nothing was installed).
  [[nodiscard]] bool ok() const { return ok_; }

  LogSinkScope(const LogSinkScope&) = delete;
  LogSinkScope& operator=(const LogSinkScope&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool ok_ = false;
};

}  // namespace dpz::obs

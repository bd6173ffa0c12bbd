// Thread-safe span recorder emitting Chrome trace-event JSON.
//
// Spans are recorded into per-thread append buffers: each thread owns a
// buffer registered once (under the registry mutex) and then appends
// with only its own buffer lock, which is never contended on the hot
// path — contention exists only against a concurrent flush/clear. The
// output is the Chrome trace-event format ("X" complete events with
// microsecond timestamps), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing; see docs/OBSERVABILITY.md.
//
// Timing uses the same steady clock as util/timer.h, expressed as
// nanoseconds since the recorder's epoch (first use in the process).
// Recording never perturbs compressed output: spans observe wall-clock
// and ids only, never data.
//
// ScopedSpan is the one stage/trace scope: it maintains the breadcrumb
// stack, records to this recorder when telemetry is on, and adds the
// same duration to an optional StageTimes sink (DpzStats::timers, the
// numbers behind Figure 9), so the stats and the trace share clock reads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/log.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "util/annotated_mutex.h"

namespace dpz::obs {

/// The calling thread's process-wide telemetry id, assigned once on
/// first use. The trace and the flight recorder both name threads by it,
/// so a `--trace` tid and a breadcrumb tid mean the same thread.
std::uint32_t thread_id();

/// Writes `ns` as microseconds with three decimals (nanosecond
/// resolution), without locale dependence; trace and log timestamps
/// share it so they line up in one timeline.
void put_us(std::ostream& out, std::uint64_t ns);

/// Process-wide span sink. All members are safe to call from any thread.
class TraceRecorder {
 public:
  /// Sentinel for "this span carries no queue-wait attribution".
  static constexpr std::uint64_t kNoWait = ~0ULL;

  static TraceRecorder& instance();

  /// Nanoseconds since the recorder epoch on the steady clock.
  static std::uint64_t now_ns();

  /// Appends a completed span for the calling thread. `queue_wait_ns`
  /// (when not kNoWait) is emitted as an args entry — used by the thread
  /// pool to attribute time between job publication and chunk start.
  void record(Span id, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint64_t queue_wait_ns = kNoWait);

  /// Drops every recorded span (buffers stay registered).
  void clear();

  /// Number of spans currently held across all threads.
  [[nodiscard]] std::size_t event_count() const;

  /// Writes the Chrome trace-event JSON document.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string json() const;

  /// Writes the JSON to a file; throws IoError-free — returns false on
  /// failure so flush paths never mask the primary operation's result.
  bool write_file(const std::string& path) const;

 private:
  struct Event {
    Span id;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::uint64_t queue_wait_ns;
  };
  struct ThreadBuffer {
    /// The thread's thread_id(), fixed at registration, so readers need
    /// no lock for it.
    explicit ThreadBuffer(std::uint32_t id) : tid(id) {}
    Mutex m;
    const std::uint32_t tid;
    std::vector<Event> events DPZ_GUARDED_BY(m);
  };

  TraceRecorder() = default;

  ThreadBuffer& local_buffer();

  mutable Mutex registry_m_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      DPZ_GUARDED_BY(registry_m_);
};

/// Per-stage nanosecond totals, one relaxed-atomic slot per Span id, so
/// any number of threads may add concurrently. Copies are snapshots.
class StageTimes {
 public:
  StageTimes() = default;
  StageTimes(const StageTimes& other) { *this = other; }
  StageTimes& operator=(const StageTimes& other) {
    for (std::size_t i = 0; i < kSpanCount; ++i)
      ns_[i].store(other.ns_[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  void add(Span id, std::uint64_t ns) {
    ns_[static_cast<std::size_t>(id)].fetch_add(ns,
                                                std::memory_order_relaxed);
  }

  [[nodiscard]] double seconds(Span id) const {
    return 1e-9 * static_cast<double>(
                      ns_[static_cast<std::size_t>(id)].load(
                          std::memory_order_relaxed));
  }

  /// Seconds for the span whose display name is `name` (0 when unknown).
  [[nodiscard]] double total(std::string_view name) const {
    for (std::size_t i = 0; i < kSpanCount; ++i)
      if (name == kSpanInfo[i].name) return seconds(static_cast<Span>(i));
    return 0.0;
  }

  /// Sum over every span.
  [[nodiscard]] double grand_total() const {
    double s = 0.0;
    for (std::size_t i = 0; i < kSpanCount; ++i)
      s += seconds(static_cast<Span>(i));
    return s;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kSpanCount> ns_{};
};

/// The RAII span scope. Always pushes and pops the breadcrumb span stack
/// (obs/log.h), so error records can name the active spans even with
/// telemetry off. Reads the clock only when `sink` is given or telemetry
/// is on; the duration goes to `sink` and, with telemetry on, to the
/// trace recorder. With neither, construction and destruction are a
/// relaxed load plus two TLS writes each — no clock reads, no
/// allocation, no shared state.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span id, StageTimes* sink = nullptr)
      : id_(id),
        traced_(telemetry_enabled()),
        sink_(sink),
        start_ns_(traced_ || sink_ != nullptr ? TraceRecorder::now_ns()
                                              : 0) {
    detail::span_push(id);
  }
  ~ScopedSpan() {
    detail::span_pop();
    if (!traced_ && sink_ == nullptr) return;
    const std::uint64_t dur = TraceRecorder::now_ns() - start_ns_;
    if (sink_ != nullptr) sink_->add(id_, dur);
    if (traced_) TraceRecorder::instance().record(id_, start_ns_, dur);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span id_;
  bool traced_;
  StageTimes* sink_;
  std::uint64_t start_ns_;
};

}  // namespace dpz::obs

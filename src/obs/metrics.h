// Process-wide metrics registry: named counters and fixed-bucket
// histograms over the pipeline's operational events.
//
// The registry is a flat array of relaxed atomics indexed by the enums in
// names.h — recording is lock-free and allocation-free from any thread.
// Every recording site goes through the gated free helpers count() /
// observe(), which check the telemetry switch first; with telemetry off a
// site costs a single relaxed load. Snapshots copy the arrays out into a
// plain struct that renders to Prometheus text or JSON for the CLI, the C
// API, and the bench harness.
//
// Concurrency contract: the registry is deliberately lock-free (relaxed
// atomics only), so it carries no capability annotations — there is no
// mutex for -Wthread-safety to track (docs/STATIC_ANALYSIS.md). Any
// future locked state here must come from util/annotated_mutex.h.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/names.h"
#include "obs/telemetry.h"

namespace dpz::obs {

/// Point-in-time copy of the registry. Plain data: copyable, inspectable
/// without locks.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::array<std::uint64_t, kHistBuckets>, kHistCount> hists{};
  std::array<std::uint64_t, kHistCount> hist_sums{};

  [[nodiscard]] std::uint64_t counter(Counter id) const {
    return counters[static_cast<std::size_t>(id)];
  }
  /// Total observations across all buckets of one histogram.
  [[nodiscard]] std::uint64_t hist_count(Hist id) const;
  /// Sum of every observed value of one histogram.
  [[nodiscard]] std::uint64_t hist_sum(Hist id) const {
    return hist_sums[static_cast<std::size_t>(id)];
  }

  /// One JSON object: {"counters": {...}, "histograms": {...}}.
  [[nodiscard]] std::string to_json() const;
  /// Prometheus text exposition format: counters as `dpz_<name>_total`,
  /// histograms as `dpz_<name>` with cumulative le-labeled buckets plus
  /// _sum and _count, each family preceded by # HELP / # TYPE lines
  /// (help text from names.h). See docs/OBSERVABILITY.md.
  [[nodiscard]] std::string to_prometheus() const;
};

/// The singleton holding the live atomics. Use the free helpers below for
/// recording; reach the registry directly only to snapshot or reset.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  void add(Counter id, std::uint64_t delta) {
    counters_[static_cast<std::size_t>(id)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void observe(Hist id, std::uint64_t value) {
    hists_[static_cast<std::size_t>(id)][bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
    hist_sums_[static_cast<std::size_t>(id)].fetch_add(
        value, std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every counter and bucket. Tests and the CLI use this to scope
  /// measurements; concurrent recorders simply land in the next window.
  void reset();

  /// log2 bucket index: 0 for value 0, otherwise 1 + floor(log2(value)).
  static std::size_t bucket_of(std::uint64_t value);

 private:
  MetricsRegistry() = default;

  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>,
             kHistCount>
      hists_{};
  std::array<std::atomic<std::uint64_t>, kHistCount> hist_sums_{};
};

/// Gated counter bump: no-op (one relaxed load) when telemetry is off.
inline void count(Counter id, std::uint64_t delta = 1) {
  if (telemetry_enabled()) MetricsRegistry::instance().add(id, delta);
}

/// Gated histogram observation: no-op when telemetry is off.
inline void observe(Hist id, std::uint64_t value) {
  if (telemetry_enabled()) MetricsRegistry::instance().observe(id, value);
}

}  // namespace dpz::obs

// Wall-clock stopwatch used by the benchmark harnesses (Figure 8/9 of
// the paper). Per-stage accounting inside the compressor is
// obs::StageTimes, filled by obs::ScopedSpan (obs/trace.h).
#pragma once

#include <chrono>

namespace dpz {

/// Monotonic wall-clock stopwatch with microsecond resolution.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch and returns the elapsed seconds so far.
  double reset() {
    const TimePoint now = Clock::now();
    const double s = seconds_between(start_, now);
    start_ = now;
    return s;
  }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double elapsed() const {
    return seconds_between(start_, Clock::now());
  }

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  static double seconds_between(TimePoint a, TimePoint b) {
    return std::chrono::duration<double>(b - a).count();
  }

  TimePoint start_;
};

}  // namespace dpz

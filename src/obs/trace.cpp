#include "obs/trace.h"

#include <chrono>
#include <fstream>
#include <sstream>

namespace dpz::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

}  // namespace

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

void put_us(std::ostream& out, std::uint64_t ns) {
  out << ns / 1000 << '.';
  const auto frac = static_cast<unsigned>(ns % 1000);
  out << static_cast<char>('0' + frac / 100)
      << static_cast<char>('0' + (frac / 10) % 10)
      << static_cast<char>('0' + frac % 10);
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed:
  // worker threads may record during static destruction of other objects.
  return *recorder;
}

std::uint64_t TraceRecorder::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           trace_epoch())
          .count());
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const MutexLock lock(registry_m_);
    buffers_.push_back(std::make_unique<ThreadBuffer>(thread_id()));
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void TraceRecorder::record(Span id, std::uint64_t start_ns,
                           std::uint64_t dur_ns,
                           std::uint64_t queue_wait_ns) {
  ThreadBuffer& buffer = local_buffer();
  const MutexLock lock(buffer.m);
  buffer.events.push_back({id, start_ns, dur_ns, queue_wait_ns});
}

void TraceRecorder::clear() {
  const MutexLock lock(registry_m_);
  for (const auto& buffer : buffers_) {
    const MutexLock buffer_lock(buffer->m);
    buffer->events.clear();
  }
}

std::size_t TraceRecorder::event_count() const {
  const MutexLock lock(registry_m_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    const MutexLock buffer_lock(buffer->m);
    n += buffer->events.size();
  }
  return n;
}

void TraceRecorder::write_json(std::ostream& out) const {
  const MutexLock lock(registry_m_);
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  for (const auto& buffer : buffers_) {
    const MutexLock buffer_lock(buffer->m);
    for (const Event& e : buffer->events) {
      out << (first ? "\n" : ",\n") << "    {\"name\": \""
          << span_name(e.id) << "\", \"cat\": \"" << span_category(e.id)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << buffer->tid
          << ", \"ts\": ";
      put_us(out, e.start_ns);
      out << ", \"dur\": ";
      put_us(out, e.dur_ns);
      if (e.queue_wait_ns != kNoWait) {
        out << ", \"args\": {\"queue_wait_us\": ";
        put_us(out, e.queue_wait_ns);
        out << "}";
      }
      out << "}";
      first = false;
    }
  }
  out << "\n  ]\n}\n";
}

std::string TraceRecorder::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write_json(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace dpz::obs

#include "obs/log.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace dpz::obs {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kTrace: break;
  }
  return "trace";
}

// JSON string escape for the free-text fields (section names and details
// are ASCII messages; control characters are \u-escaped defensively).
void put_json_string(std::ostream& out, const char* text) {
  out << '"';
  for (const char* p = text; *p != '\0'; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      out << '\\' << *p;
    } else if (c < 0x20) {
      const char* hex = "0123456789abcdef";
      out << "\\u00" << hex[c >> 4] << hex[c & 0xF];
    } else {
      out << *p;
    }
  }
  out << '"';
}

void copy_truncated(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap - 1, src.size());
  // An empty detail's data() may be null, which memcpy must never see.
  if (n != 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

void write_record_json(std::ostream& out,
                       const FlightRecorder::Record& r) {
  out << "{\"ts_us\": ";
  put_us(out, r.ts_ns);
  out << ", \"tid\": " << r.tid << ", \"level\": \"" << level_name(r.level)
      << "\", \"event\": ";
  put_json_string(out, event_name(r.event));
  out << ", \"status\": \""
      << status_code_name(static_cast<StatusCode>(r.status)) << '"';
  if (r.offset != LogContext::kNoValue) out << ", \"offset\": " << r.offset;
  if (r.frame != LogContext::kNoValue) out << ", \"frame\": " << r.frame;
  if (r.section[0] != '\0') {
    out << ", \"section\": ";
    put_json_string(out, r.section);
  }
  if (r.span_depth != 0) {
    out << ", \"spans\": [";
    const std::uint8_t named = std::min<std::uint8_t>(
        r.span_depth, detail::kSpanStackCapacity);
    for (std::uint8_t i = 0; i < named; ++i)
      out << (i == 0 ? "" : ", ") << '"' << span_name(r.spans[i]) << '"';
    out << ']';
  }
  if (r.detail[0] != '\0') {
    out << ", \"detail\": ";
    put_json_string(out, r.detail);
  }
  out << "}";
}

}  // namespace

bool parse_log_level(std::string_view text, LogLevel* out) {
  if (text == "error") {
    *out = LogLevel::kError;
  } else if (text == "warn") {
    *out = LogLevel::kWarn;
  } else if (text == "info") {
    *out = LogLevel::kInfo;
  } else if (text == "trace") {
    *out = LogLevel::kTrace;
  } else {
    return false;
  }
  return true;
}

bool set_log_level_from_env() {
  const char* env = std::getenv("DPZ_LOG_LEVEL");
  if (env == nullptr) return false;
  LogLevel level = LogLevel::kWarn;
  if (!parse_log_level(env, &level)) return false;
  set_log_level(level);
  return true;
}

// One thread's slice of the flight recorder: a fixed ring appended
// under its own lock, which is uncontended on the recording path —
// contention exists only against a concurrent snapshot/clear.
struct FlightRecorder::ThreadRing {
  explicit ThreadRing(std::uint32_t id) : tid(id) {}
  Mutex m;
  const std::uint32_t tid;
  std::array<Record, kRingCapacity> ring DPZ_GUARDED_BY(m);
  std::uint64_t next DPZ_GUARDED_BY(m) = 0;  // monotone append count
};

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // never
  // destroyed: error paths may log during static destruction.
  return *recorder;
}

FlightRecorder::ThreadRing& FlightRecorder::local_ring() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    const MutexLock lock(registry_m_);
    rings_.push_back(std::make_unique<ThreadRing>(thread_id()));
    ring = rings_.back().get();
  }
  return *ring;
}

void FlightRecorder::record(Event event, LogLevel level,
                            StatusCode status, const LogContext& ctx,
                            std::string_view detail_text) {
  ThreadRing& ring = local_ring();
  Record r;
  r.ts_ns = TraceRecorder::now_ns();
  r.offset = ctx.offset;
  r.frame = ctx.frame;
  r.tid = ring.tid;
  r.event = event;
  r.level = level;
  r.status = static_cast<std::uint8_t>(status);
  const detail::SpanStack& stack = detail::t_span_stack;
  r.span_depth = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(stack.depth, detail::kSpanStackCapacity));
  for (std::uint8_t i = 0; i < r.span_depth; ++i) r.spans[i] = stack.ids[i];
  copy_truncated(r.section, sizeof(r.section),
                 ctx.section != nullptr ? ctx.section : "");
  copy_truncated(r.detail, sizeof(r.detail), detail_text);
  {
    const MutexLock lock(ring.m);
    ring.ring[ring.next % kRingCapacity] = r;
    ++ring.next;
  }
  if (level == LogLevel::kError) {
    const MutexLock lock(last_error_m_);
    last_error_ = r;
    has_last_error_ = true;
  }
  {
    const MutexLock lock(sink_m_);
    if (sink_ != nullptr) {
      write_record_json(*sink_, r);
      *sink_ << '\n';
    }
  }
}

void FlightRecorder::clear() {
  {
    const MutexLock lock(registry_m_);
    for (const auto& ring : rings_) {
      const MutexLock ring_lock(ring->m);
      ring->next = 0;
    }
  }
  const MutexLock lock(last_error_m_);
  has_last_error_ = false;
}

std::vector<FlightRecorder::Record> FlightRecorder::snapshot() const {
  std::vector<Record> out;
  {
    const MutexLock lock(registry_m_);
    for (const auto& ring : rings_) {
      const MutexLock ring_lock(ring->m);
      const std::uint64_t held =
          std::min<std::uint64_t>(ring->next, kRingCapacity);
      for (std::uint64_t i = ring->next - held; i < ring->next; ++i)
        out.push_back(ring->ring[i % kRingCapacity]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void FlightRecorder::write_jsonl(std::ostream& out) const {
  for (const Record& r : snapshot()) {
    write_record_json(out, r);
    out << '\n';
  }
}

bool FlightRecorder::has_last_error() const {
  const MutexLock lock(last_error_m_);
  return has_last_error_;
}

std::string FlightRecorder::last_error_report() const {
  Record error;
  {
    const MutexLock lock(last_error_m_);
    if (!has_last_error_) return {};
    error = last_error_;
  }
  std::ostringstream out;
  out << "last error: " << event_name(error.event) << " (status "
      << status_code_name(static_cast<StatusCode>(error.status)) << ")\n";
  if (error.detail[0] != '\0')
    out << "  detail: " << error.detail << "\n";
  if (error.section[0] != '\0')
    out << "  section: " << error.section << "\n";
  if (error.offset != LogContext::kNoValue)
    out << "  archive offset: " << error.offset << "\n";
  if (error.frame != LogContext::kNoValue)
    out << "  frame index: " << error.frame << "\n";
  if (error.span_depth != 0) {
    out << "  span stack: ";
    const std::uint8_t named = std::min<std::uint8_t>(
        error.span_depth, detail::kSpanStackCapacity);
    for (std::uint8_t i = 0; i < named; ++i)
      out << (i == 0 ? "" : " > ") << span_name(error.spans[i]);
    if (error.span_depth > named) out << " > ...";
    out << "\n";
  }
  // Breadcrumbs: the trailing flight-recorder records up to and
  // including the error, oldest first.
  std::vector<Record> crumbs = snapshot();
  crumbs.erase(std::remove_if(crumbs.begin(), crumbs.end(),
                              [&](const Record& r) {
                                return r.ts_ns > error.ts_ns;
                              }),
               crumbs.end());
  if (crumbs.size() > kReportRecords)
    crumbs.erase(crumbs.begin(),
                 crumbs.end() - static_cast<std::ptrdiff_t>(kReportRecords));
  out << "flight recorder (" << crumbs.size()
      << " breadcrumbs, oldest first):\n";
  for (const Record& r : crumbs) {
    out << "  [";
    put_us(out, r.ts_ns);
    out << " us] tid " << r.tid << " " << level_name(r.level) << " "
        << event_name(r.event) << " status="
        << status_code_name(static_cast<StatusCode>(r.status));
    if (r.frame != LogContext::kNoValue) out << " frame=" << r.frame;
    if (r.offset != LogContext::kNoValue) out << " offset=" << r.offset;
    if (r.section[0] != '\0') out << " section=" << r.section;
    if (r.detail[0] != '\0') out << " detail=\"" << r.detail << '"';
    out << "\n";
  }
  return out.str();
}

void FlightRecorder::set_sink(std::ostream* sink) {
  const MutexLock lock(sink_m_);
  if (sink_ != nullptr) sink_->flush();
  sink_ = sink;
}

struct LogSinkScope::Impl {
  std::ofstream out;
  LogLevel previous_level = LogLevel::kWarn;
};

LogSinkScope::LogSinkScope(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->previous_level = log_level();
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) return;
  ok_ = true;
  // A sink with the always-on default threshold would only ever see
  // error/warn records; raise to info so the file shows progress. An
  // explicitly raised level (DPZ_LOG_LEVEL=trace) is left alone.
  if (log_level() < LogLevel::kInfo) set_log_level(LogLevel::kInfo);
  FlightRecorder::instance().set_sink(&impl_->out);
}

LogSinkScope::~LogSinkScope() {
  if (ok_) {
    FlightRecorder::instance().set_sink(nullptr);
    set_log_level(impl_->previous_level);
  }
}

}  // namespace dpz::obs

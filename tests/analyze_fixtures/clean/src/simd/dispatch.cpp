// Compliant: times through the one span scope; reading the trace clock
// and flushing the recorder are not span mechanisms.
namespace dpz {

void select_kernels();

void resolve_dispatch() {
  const obs::ScopedSpan span(obs::Span::kSimdDispatch);
  select_kernels();
}

std::uint64_t now() { return obs::TraceRecorder::now_ns(); }

bool flush(const char* path) {
  return obs::TraceRecorder::instance().write_file(path);
}

}  // namespace dpz

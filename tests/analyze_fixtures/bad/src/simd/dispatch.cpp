namespace dpz {

void select_kernels();

void resolve_dispatch() {
  const std::uint64_t start = obs::TraceRecorder::now_ns();
  obs::detail::span_push(obs::Span::kSimdDispatch);  // planted: single-span
  select_kernels();
  obs::detail::span_pop();  // planted: single-span
  obs::TraceRecorder::instance().record(  // planted: single-span
      obs::Span::kSimdDispatch, start, obs::TraceRecorder::now_ns() - start);
}

}  // namespace dpz

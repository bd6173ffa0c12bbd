// Boundary: src/obs/ owns the span machinery, so the scope itself may
// push breadcrumbs and record to the TraceRecorder (single-span).
namespace dpz::obs {

class ScopedSpan {
 public:
  explicit ScopedSpan(Span id) : id_(id), start_ns_(TraceRecorder::now_ns()) {
    detail::span_push(id);
  }
  ~ScopedSpan() {
    detail::span_pop();
    TraceRecorder::instance().record(id_, start_ns_,
                                     TraceRecorder::now_ns() - start_ns_);
  }

 private:
  Span id_;
  std::uint64_t start_ns_;
};

}  // namespace dpz::obs

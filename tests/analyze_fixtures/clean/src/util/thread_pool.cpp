// Boundary: util/thread_pool.cpp is the one home of std::thread
// (raw-thread); workers are joined, never detached, and only the pool
// reads its own width (thread_count(), team_width()). It is also the one
// TraceRecorder record outside src/obs/ (single-span): pool_task spans
// carry queue-wait, which the span scope does not.
#include <thread>
#include <vector>

namespace dpz {

void run_joined(void (*fn)(), int n) {
  std::vector<std::thread> workers;
  for (int i = 0; i < n; ++i) workers.emplace_back(fn);
  for (std::thread& worker : workers) worker.join();
}

unsigned chunk_count(const ThreadPool& pool, std::size_t n) {
  return std::min<std::size_t>(pool.thread_count(), n);
}

unsigned ThreadPool::team_width() const { return participants_; }

void record_pool_task(std::uint64_t start_ns, std::uint64_t end_ns,
                      std::uint64_t wait_ns) {
  obs::TraceRecorder::instance().record(obs::Span::kPoolTask, start_ns,
                                        end_ns - start_ns, wait_ns);
}

}  // namespace dpz

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <string>

#include "obs/log.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/annotated_mutex.h"
#include "util/resource.h"

namespace dpz {

namespace {

// Depth of parallel bodies running on this thread (any pool). Nested
// calls see a non-zero depth and execute inline, which both prevents
// fork/join self-deadlock and keeps the worker set at its configured
// size when an outer loop (e.g. chunked frames) fans out over code that
// itself calls parallel_for (PCA, DCT, quantization).
thread_local int t_parallel_depth = 0;

struct DepthGuard {
  DepthGuard() { ++t_parallel_depth; }
  ~DepthGuard() { --t_parallel_depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
};

// The calling thread's active pool (see PoolScope).
thread_local const ThreadPool* t_active_pool = nullptr;

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace

// One published dispatch: chunk c covers [begin + c*chunk,
// begin + (c+1)*chunk) clamped to end.
struct ThreadPool::Job {
  const ChunkBody* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 0;
  // Trace-clock timestamp of job publication; 0 when telemetry was off at
  // publish time. Lets each participant attribute queue-wait (publication
  // to chunk start) separately from run time in its pool_task span.
  std::uint64_t publish_ns = 0;
  // The publishing thread's resource governor (null when ungoverned):
  // participants adopt it for their chunks so governed charges and
  // cooperative cancellation checkpoints cross the fork. The shared_ptr
  // keeps the governor alive for the job even though the publisher also
  // holds it.
  std::shared_ptr<const ResourceGovernor> governor;
};

// Fork/join state shared between the publisher and the workers. All
// fields are guarded by `m` (and annotated so a Clang -Wthread-safety
// build proves it); a job is published by bumping `generation` and
// consumed by every worker exactly once.
struct ThreadPool::Shared {
  Mutex m;
  CondVar job_cv;   // workers wait for a new generation
  CondVar done_cv;  // the caller waits for remaining == 0
  std::uint64_t generation DPZ_GUARDED_BY(m) = 0;
  bool stop DPZ_GUARDED_BY(m) = false;
  Job job DPZ_GUARDED_BY(m);
  // Workers that have not finished this job.
  unsigned remaining DPZ_GUARDED_BY(m) = 0;
  std::exception_ptr error DPZ_GUARDED_BY(m);
};

// Barrier and failure state of one run_team call. `generation` counts
// completed barriers (and is bumped once more by an abort, so blocked
// waiters wake); `arrived` counts participants inside the current one.
struct TeamMember::State {
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> generation{0};
  std::atomic<bool> aborted{false};
  Mutex m;
  std::exception_ptr error DPZ_GUARDED_BY(m);

  // Records the first failure and releases every waiting participant.
  void abort(std::exception_ptr e) {
    {
      const MutexLock lock(m);
      if (!error) error = std::move(e);
    }
    aborted.store(true);
    generation.fetch_add(1);
    generation.notify_all();
  }
};

namespace {

// Records one pool_task span with queue-wait attribution. `publish_ns`
// may be 0 (telemetry was off when the job was published) — then the
// wait is unknown and the span carries no attribution.
void record_pool_task(std::uint64_t publish_ns, std::uint64_t start_ns,
                      std::uint64_t end_ns) {
  const std::uint64_t wait =
      publish_ns != 0 && start_ns > publish_ns
          ? start_ns - publish_ns
          : (publish_ns != 0 ? 0 : obs::TraceRecorder::kNoWait);
  obs::TraceRecorder::instance().record(obs::Span::kPoolTask, start_ns,
                                        end_ns - start_ns, wait);
}

// Breadcrumb for a pool chunk that died on an exception. Called inside
// the catch scope so the in-flight exception can be classified; a
// governance abort keeps its own status code (its checkpoint already
// logged the primary event at the throw site).
void log_pool_task_error() {
  StatusCode status = StatusCode::kInternal;
  std::string what;
  try {
    throw;
  } catch (const Error& e) {
    status = e.code();
    what = e.what();
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
    what = "unknown exception";
  }
  obs::log_error(obs::Event::kPoolTaskError, status, {}, what);
}

// Thrown out of TeamMember::barrier in the participants a failed peer
// released; run_team absorbs it, since the peer's error is the one
// reported.
struct TeamAborted {};

// Spin-wait hint: lets a hyperthread sibling run while a barrier spins.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

void TeamMember::barrier() {
  governed_poll();
  if (size_ == 1) return;
  State& s = *state_;
  const std::uint32_t gen = s.generation.load();
  if (s.aborted.load()) throw TeamAborted{};
  if (s.arrived.fetch_add(1) + 1 == size_) {
    s.arrived.store(0);
    s.generation.store(gen + 1);
    s.generation.notify_all();
    return;
  }
  // A Stage-2 step lasts microseconds to tens of microseconds, so a
  // short spin usually catches the release. Past it, yield (a runnable
  // thread of another pool gets the core), then block rather than burn
  // a core a peer may need.
  constexpr int kSpins = 2048;
  constexpr int kYields = 64;
  for (int spin = 0; spin < kSpins + kYields && s.generation.load() == gen;
       ++spin) {
    if (spin < kSpins)
      cpu_relax();
    else
      std::this_thread::yield();
  }
  while (s.generation.load() == gen) s.generation.wait(gen);
  if (s.aborted.load()) throw TeamAborted{};
}

ThreadPool::ThreadPool(unsigned threads)
    : thread_count_(threads != 0 ? threads : default_thread_count()),
      participants_(std::min(thread_count_, default_thread_count())),
      shared_(std::make_unique<Shared>()) {
  workers_.reserve(participants_ - 1);
  for (unsigned p = 1; p < participants_; ++p)
    workers_.emplace_back([this, p] { worker_main(p); });
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(shared_->m);
    shared_->stop = true;
  }
  shared_->job_cv.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_main(unsigned participant) const {
  Shared& s = *shared_;
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      // Predicate spelled out in the wait loop (not a lambda) so the
      // thread-safety analysis sees the guarded reads under the lock.
      const MutexLock lock(s.m);
      while (!s.stop && s.generation == seen) s.job_cv.wait(s.m);
      if (s.stop) return;
      seen = s.generation;
      job = s.job;
    }
    run_share(job, participant);
    {
      const MutexLock lock(s.m);
      if (--s.remaining == 0) s.done_cv.notify_all();
    }
  }
}

void ThreadPool::run_share(const Job& job, unsigned participant) const {
  std::size_t lo = job.begin + participant * job.chunk;
  if (lo >= job.end) return;
  const bool traced = obs::telemetry_enabled();
  const std::uint64_t start_ns = traced ? obs::TraceRecorder::now_ns() : 0;
  const DepthGuard guard;
  // Adopt the publisher's governor so body-internal charges and polls
  // see it; a tripped limit surfaces through the first-error channel.
  const detail::GovernorAdopt adopt(job.governor.get());
  try {
    for (; lo < job.end; lo += participants_ * job.chunk)
      (*job.body)(lo, std::min(job.end, lo + job.chunk));
  } catch (...) {
    log_pool_task_error();
    const MutexLock lock(shared_->m);
    if (!shared_->error) shared_->error = std::current_exception();
  }
  if (traced)
    record_pool_task(job.publish_ns, start_ns, obs::TraceRecorder::now_ns());
}

void ThreadPool::parallel_chunks(std::size_t begin, std::size_t end,
                                 const ChunkBody& body) const {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunk = (n + thread_count_ - 1) / thread_count_;

  // Inline paths: one-participant pools, single-chunk ranges, and nested
  // calls (the calling thread is already one of a pool's participants).
  if (workers_.empty() || n == 1 || t_parallel_depth > 0) {
    const DepthGuard guard;
    for (std::size_t lo = begin; lo < end; lo += chunk)
      body(lo, std::min(end, lo + chunk));
    return;
  }

  // One loop at a time: concurrent top-level callers queue here.
  const MutexLock run_lock(run_mutex_);
  Shared& s = *shared_;
  const Job job{&body, begin, end, chunk,
                obs::telemetry_enabled() ? obs::TraceRecorder::now_ns() : 0,
                current_governor_shared()};
  {
    const MutexLock lock(s.m);
    s.job = job;
    s.remaining = static_cast<unsigned>(workers_.size());
    s.error = nullptr;
    ++s.generation;
  }
  s.job_cv.notify_all();
  run_share(job, 0);  // the calling thread is participant 0

  std::exception_ptr error;
  {
    const MutexLock lock(s.m);
    while (s.remaining != 0) s.done_cv.wait(s.m);
    error = s.error;
    s.job = Job{};
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t)>& body) const {
  parallel_chunks(begin, end, [&body](std::size_t lo, std::size_t hi) {
    const ResourceGovernor* governor = current_governor();
    for (std::size_t i = lo; i < hi; ++i) {
      if (governor != nullptr) governor->checkpoint();
      body(i);
    }
  });
}

unsigned ThreadPool::team_width() const {
  return t_parallel_depth > 0 ? 1 : participants_;
}

void ThreadPool::run_team(
    const std::function<void(TeamMember&)>& body) const {
  const unsigned width = team_width();
  TeamMember::State state;
  // One chunk per participant. Never throws: a failing body aborts the
  // team, whose first error is rethrown below once every participant
  // has left.
  parallel_chunks(0, width, [&](std::size_t rank, std::size_t) {
    TeamMember member(state, static_cast<unsigned>(rank), width);
    try {
      body(member);
    } catch (const TeamAborted&) {
      // Released by a failed peer; its error is the one reported.
    } catch (...) {
      log_pool_task_error();
      state.abort(std::current_exception());
    }
  });
  std::exception_ptr error;
  {
    const MutexLock lock(state.m);
    error = state.error;
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::in_parallel_region() { return t_parallel_depth > 0; }

const ThreadPool& ThreadPool::global() {
  static const ThreadPool pool;
  return pool;
}

const ThreadPool& PoolScope::current() {
  const ThreadPool* pool = t_active_pool;
  return pool != nullptr ? *pool : ThreadPool::global();
}

const ThreadPool* PoolScope::exchange(const ThreadPool* pool) {
  const ThreadPool* previous = t_active_pool;
  t_active_pool = pool;
  return previous;
}

}  // namespace dpz

// An OpenMP-style parallel-for executor with persistent workers.
//
// The paper notes (SS V-C5) that DPZ's block-based design parallelizes
// naturally: per-block DCT, quantization, per-frame encoding, and
// per-subset PCA carry no cross-block dependencies. Every parallel step
// therefore does one job — split a range into contiguous pieces — and
// the pool does it one way: `parallel_chunks` splits [begin, end) into
// contiguous chunks of ceil(n / threads) indices (at most min(threads, n)
// of them) and runs them on min(threads, cores) participants, p taking
// chunks p, p + P, p + 2P, ... The chunk count comes from `threads`, the
// participant count P from min(threads, cores), so no pool starts more
// OS threads than the host has cores. `parallel_for` is parallel_chunks applied
// per index. Results are bit-deterministic regardless of thread count:
// each index is processed exactly once, writes are disjoint, and no
// reduction order depends on the partition.
//
// Reentrancy contract:
//   * parallel_chunks / parallel_for may be called concurrently from any
//     number of threads; concurrent top-level calls on the same pool are
//     serialized internally.
//   * they may be called from inside a body (on the same or another
//     pool); nested calls run their chunks inline, in order, on the
//     calling thread, so the worker set never oversubscribes and nesting
//     cannot deadlock. So do calls on a one-participant pool.
//
// Pool selection: pipeline entry points install the pool that their
// `threads` knob resolves to via ScopedThreads; every inner loop that
// calls the free `parallel_for` / `parallel_chunks` then runs on that
// pool. With no scope installed, the process-wide pool (hardware
// concurrency) is used.
//
// Resource governance: a dispatch publishes the calling thread's
// ResourceGovernor (util/resource.h) with each job. Workers adopt it for
// their chunks — so governed memory charges inside the body account
// correctly — and parallel_for polls it between indices, which bounds
// cancellation/deadline abort latency to one body call even mid-loop.
// Ungoverned loops pay one thread-local load per chunk.
//
// Teams: run_team is the one primitive for work that must synchronize
// mid-flight (Stage 2's row-owned Householder reduction): one chunk per
// participant, so every participant is guaranteed to enter the body and
// a TeamMember::barrier can never wait on a participant that was
// skipped. The width is the participant count — a spinning barrier on
// an oversubscribed host would steal the cores its peers need — and is
// 1 for nested calls, which run the body inline. The barrier spins
// briefly, then blocks (std::atomic::wait), and polls the governor at
// entry, so every participant polls at the same step. An exception or
// governance trip in any participant releases the others from their
// barrier and is rethrown once by run_team. A team's output must not
// depend on its width: the one-participant run is the oracle that any
// wider run has to reproduce bit for bit.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/annotated_mutex.h"

namespace dpz {

/// One participant's view of a ThreadPool::run_team call.
class TeamMember {
 public:
  /// This participant's index in [0, size()); 0 is the calling thread.
  [[nodiscard]] unsigned rank() const { return rank_; }
  [[nodiscard]] unsigned size() const { return size_; }

  /// Returns once every participant has called barrier() the same
  /// number of times; writes made before the barrier are visible to all
  /// participants after it. Polls the governor first (throwing
  /// Cancelled / DeadlineExceeded on a trip), and throws an internal
  /// exception that run_team absorbs when a peer has failed.
  void barrier();

 private:
  friend class ThreadPool;
  struct State;

  TeamMember(State& state, unsigned rank, unsigned size)
      : state_(&state), rank_(rank), size_(size) {}

  State* state_;
  unsigned rank_;
  unsigned size_;
};

/// Fixed-size pool of persistent worker threads executing
/// static-partitioned loops. The calling thread participates in every
/// loop, so a pool of `threads` runs on min(threads, cores) participants
/// while spawning one worker fewer.
class ThreadPool {
 public:
  /// `body(lo, hi)` of one contiguous chunk [lo, hi).
  using ChunkBody = std::function<void(std::size_t, std::size_t)>;

  /// Creates a pool that splits work `threads` ways; 0 means hardware
  /// concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The requested width, which sets the chunk boundaries (not the
  /// number of OS threads, which never exceeds the cores).
  [[nodiscard]] unsigned thread_count() const { return thread_count_; }

  /// Calls `body(lo, hi)` once for each contiguous chunk of [begin, end):
  /// ceil(n / thread_count()) indices each (the last may be shorter), so
  /// at most min(thread_count(), n) chunks. `body` may freely write to
  /// disjoint per-index output slots. Exceptions thrown by `body` are
  /// captured and rethrown (first one wins). Safe to call concurrently
  /// and from inside another body (nested calls run inline; see header
  /// comment).
  void parallel_chunks(std::size_t begin, std::size_t end,
                       const ChunkBody& body) const;

  /// Applies `body(i)` for every i in [begin, end): parallel_chunks with
  /// a governor checkpoint before each index.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body) const;

  /// Participants run_team engages from the calling thread: the pool's
  /// participants, or 1 when called from inside a parallel region (the
  /// body then runs inline).
  [[nodiscard]] unsigned team_width() const;

  /// Runs `body(member)` once on each of team_width() participants at
  /// the same time, so bodies may synchronize through member.barrier().
  /// Unlike parallel_for, no governor poll precedes a participant's body
  /// (one that never entered could not reach the barrier); the barrier
  /// polls instead. The first exception thrown by any body (a
  /// governance trip included) releases the other participants and is
  /// rethrown here once. Serialized against other loops on this pool.
  void run_team(const std::function<void(TeamMember&)>& body) const;

  /// True when the calling thread is currently executing a parallel
  /// body (of any pool). Such calls run their own loops inline.
  static bool in_parallel_region();

  /// Shared process-wide pool (sized to hardware concurrency).
  static const ThreadPool& global();

 private:
  struct Job;
  struct Shared;

  void worker_main(unsigned participant) const;

  /// One participant's share of `job`: chunks participant,
  /// participant + P, ... run under the job's governor, with the
  /// pool_task span and first-error capture.
  void run_share(const Job& job, unsigned participant) const;

  unsigned thread_count_;
  unsigned participants_;
  std::unique_ptr<Shared> shared_;
  std::vector<std::thread> workers_;
  /// Serializes top-level calls arriving from different threads; the
  /// pool runs one loop at a time.
  mutable Mutex run_mutex_;
};

/// Installs a pool as the calling thread's active pool for the lifetime
/// of the scope; the free `parallel_for` below routes through it. Scopes
/// nest (the previous pool is restored on destruction) and are
/// per-thread, so concurrent pipelines with different knobs do not
/// interfere.
class PoolScope {
 public:
  explicit PoolScope(const ThreadPool& pool) : previous_(exchange(&pool)) {}
  ~PoolScope() { exchange(previous_); }

  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

  /// The calling thread's active pool (the global pool when no scope is
  /// installed).
  static const ThreadPool& current();

 private:
  /// Swaps the thread-local active-pool pointer, returning the old one.
  static const ThreadPool* exchange(const ThreadPool* pool);

  const ThreadPool* previous_;
};

/// Resolves a `threads` configuration knob for the duration of a
/// pipeline call: 0 keeps the ambient pool (the enclosing scope's, or
/// the global pool), any other value runs the scope on a dedicated pool
/// of that size. Output never depends on the choice — only wall-clock
/// does.
class ScopedThreads {
 public:
  explicit ScopedThreads(unsigned threads)
      : owned_(threads != 0 ? std::make_unique<ThreadPool>(threads)
                            : nullptr),
        scope_(owned_ ? *owned_ : PoolScope::current()) {}

 private:
  std::unique_ptr<ThreadPool> owned_;
  PoolScope scope_;
};

/// Convenience wrappers over the calling thread's active pool.
inline void parallel_chunks(std::size_t begin, std::size_t end,
                            const ThreadPool::ChunkBody& body) {
  PoolScope::current().parallel_chunks(begin, end, body);
}

inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body) {
  PoolScope::current().parallel_for(begin, end, body);
}

}  // namespace dpz

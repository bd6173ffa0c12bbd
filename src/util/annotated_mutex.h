// Capability-annotated synchronization primitives for Clang's
// -Wthread-safety analysis (docs/STATIC_ANALYSIS.md).
//
// Every mutex, scoped lock, and condition variable in src/ comes from
// this header — tools/dpz_analyze (check `naked-mutex`) rejects naked
// std::mutex / std::lock_guard / std::condition_variable anywhere else.
// The wrappers cost nothing: each method forwards to the std type it
// owns, and the DPZ_* attribute macros expand to Clang's thread-safety
// attributes under Clang and to nothing elsewhere, so GCC builds see
// plain inline forwarding.
//
// The payoff is compile-time lock discipline: a member declared
// DPZ_GUARDED_BY(m) cannot be read or written without holding `m`, a
// method declared DPZ_REQUIRES(m) cannot be called without it, and the
// clang-tsa CMake preset promotes any violation to a build error before
// TSan ever runs the code.
#pragma once

#include <condition_variable>
#include <mutex>

// Attribute plumbing: real attributes under Clang, no-ops elsewhere.
// Kept to the subset the tree uses; extend alongside the Clang docs'
// mutex.h reference when a new annotation is needed.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DPZ_TSA_(x) __attribute__((x))
#endif
#endif
#ifndef DPZ_TSA_
#define DPZ_TSA_(x)
#endif

/// Marks a class as a lockable capability ("mutex" is the kind shown in
/// diagnostics).
#define DPZ_CAPABILITY(x) DPZ_TSA_(capability(x))
/// Marks an RAII class that acquires in its constructor and releases in
/// its destructor.
#define DPZ_SCOPED_CAPABILITY DPZ_TSA_(scoped_lockable)
/// Declares that a member may only be accessed while holding `x`.
#define DPZ_GUARDED_BY(x) DPZ_TSA_(guarded_by(x))
/// Declares that callers must hold the listed capabilities.
#define DPZ_REQUIRES(...) DPZ_TSA_(requires_capability(__VA_ARGS__))
/// Declares that a function acquires the listed capabilities.
#define DPZ_ACQUIRE(...) DPZ_TSA_(acquire_capability(__VA_ARGS__))
/// Declares that a function releases the listed capabilities.
#define DPZ_RELEASE(...) DPZ_TSA_(release_capability(__VA_ARGS__))

namespace dpz {

/// std::mutex with the capability attribute. Satisfies BasicLockable, so
/// it composes with the standard library, but prefer MutexLock scopes —
/// manual lock()/unlock() pairs are where the analysis earns its keep
/// least.
class DPZ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DPZ_ACQUIRE() { m_.lock(); }
  void unlock() DPZ_RELEASE() { m_.unlock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock of a Mutex for a scope (the std::lock_guard shape). The
/// analysis treats the capability as held from construction to the end
/// of the enclosing block on every exit path.
class DPZ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) DPZ_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() DPZ_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable over Mutex. wait() takes the Mutex itself (not a
/// lock object) so the DPZ_REQUIRES contract can name the capability;
/// write wait loops with the predicate in the calling function, where
/// the analysis can see the guarded reads:
///
///   MutexLock lock(m);
///   while (!ready) cv.wait(m);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `m`, blocks until notified, reacquires `m`.
  /// Spurious wakeups happen; always wait in a predicate loop.
  void wait(Mutex& m) DPZ_REQUIRES(m) {
    std::unique_lock<std::mutex> lock(m.m_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dpz

// drum::check — Clang thread-safety capability annotations (DESIGN.md §11).
//
// Locking discipline in this codebase is compiler-enforced, not comment-
// enforced: every mutex is a *capability*, every field it protects is
// declared DRUM_GUARDED_BY(that mutex), and every function that needs a lock
// held says so with DRUM_REQUIRES. Under Clang the `-Wthread-safety` analysis
// (enabled by the DRUM_THREAD_SAFETY cmake option, promoted to -Werror in
// the CI `thread-safety` job) proves at compile time that no guarded field
// is touched without its lock and that no lock is taken twice. Under GCC —
// the tier-1 compiler — every macro here expands to *exactly nothing*
// (tests/annotations_test.cpp asserts that), so the annotations are free.
//
// Because libstdc++'s std::mutex is not itself annotated as a capability,
// this header also supplies the thin annotated wrappers the whole tree uses
// instead of the std types (scripts/drum_lint.py's `raw-mutex` check bans
// the naked std forms in src/):
//
//   std::mutex                   -> drum::check::Mutex
//   std::shared_mutex            -> drum::check::SharedMutex
//   std::lock_guard/unique_lock  -> drum::check::MutexLock
//   std::shared_lock             -> drum::check::SharedLock
//   std::condition_variable      -> std::condition_variable_any waiting on a
//                                   MutexLock (it only needs BasicLockable)
//
// How to annotate a new mutex (the full recipe is DESIGN.md §11):
//   1. declare it:           Mutex mu_;
//   2. mark what it guards:  int queue_len_ DRUM_GUARDED_BY(mu_);
//   3. lock with RAII:       MutexLock lock(mu_);
//   4. helpers called with the lock held: void drain() DRUM_REQUIRES(mu_);
// The drum_lint `mutex-annotation` check fails any Mutex with zero
// DRUM_GUARDED_BY/DRUM_REQUIRES users — an unused capability is a lock whose
// protection story exists only in the author's head.
//
// This header is dependency-free on purpose: everything else in drum::check
// (contracts, invariants) may include it, never the reverse.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DRUM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DRUM_THREAD_ANNOTATION
#define DRUM_THREAD_ANNOTATION(x)  // no-op: GCC, MSVC, old clang
#endif

/// Marks a type as a lockable capability ("mutex" names it in diagnostics).
#define DRUM_CAPABILITY(x) DRUM_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define DRUM_SCOPED_CAPABILITY DRUM_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define DRUM_GUARDED_BY(x) DRUM_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer) is protected by `x`.
#define DRUM_PT_GUARDED_BY(x) DRUM_THREAD_ANNOTATION(pt_guarded_by(x))
/// Caller must hold the capability exclusively for the call.
#define DRUM_REQUIRES(...) \
  DRUM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must hold the capability at least shared.
#define DRUM_REQUIRES_SHARED(...) \
  DRUM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability and holds it on return.
#define DRUM_ACQUIRE(...) \
  DRUM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DRUM_ACQUIRE_SHARED(...) \
  DRUM_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (must be held on entry).
#define DRUM_RELEASE(...) \
  DRUM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DRUM_RELEASE_SHARED(...) \
  DRUM_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `b`.
#define DRUM_TRY_ACQUIRE(...) \
  DRUM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define DRUM_EXCLUDES(...) DRUM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Declares that the capability is held (runtime-checked elsewhere).
#define DRUM_ASSERT_CAPABILITY(x) \
  DRUM_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the given capability.
#define DRUM_RETURN_CAPABILITY(x) DRUM_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: turns the analysis off for one function. Every use must
/// carry a comment saying why the function is safe anyway.
#define DRUM_NO_THREAD_SAFETY_ANALYSIS \
  DRUM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace drum::check {

/// std::mutex with the capability attribute the analysis needs. Same size,
/// same cost — lock()/unlock() are inline forwards.
class DRUM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DRUM_ACQUIRE() { mu_.lock(); }
  void unlock() DRUM_RELEASE() { mu_.unlock(); }
  bool try_lock() DRUM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// std::shared_mutex as a capability: exclusive writers, shared readers.
class DRUM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() DRUM_ACQUIRE() { mu_.lock(); }
  void unlock() DRUM_RELEASE() { mu_.unlock(); }
  bool try_lock() DRUM_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() DRUM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() DRUM_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() DRUM_TRY_ACQUIRE(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock (the lock_guard/unique_lock replacement). The
/// lock()/unlock() members exist so std::condition_variable_any can release
/// and reacquire around a wait:
///
///   MutexLock lock(mu_);
///   cv_.wait(lock, [&] { return !items_.empty(); });
///
/// The analysis treats the capability as held across the wait — exactly the
/// contract the caller sees (wait() returns with the lock reacquired).
class DRUM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DRUM_ACQUIRE(mu) : mu_(mu), owned_(true) {
    mu_.lock();
  }
  ~MutexLock() DRUM_RELEASE() {
    if (owned_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable, for condition_variable_any only: the analysis cannot see
  // through the wait's unlock/relock pair, and that is the right model.
  void lock() DRUM_NO_THREAD_SAFETY_ANALYSIS {
    mu_.lock();
    owned_ = true;
  }
  void unlock() DRUM_NO_THREAD_SAFETY_ANALYSIS {
    owned_ = false;
    mu_.unlock();
  }

 private:
  Mutex& mu_;
  bool owned_;
};

/// RAII exclusive lock on a SharedMutex (writer side).
class DRUM_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) DRUM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SharedMutexLock() DRUM_RELEASE() { mu_.unlock(); }
  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock on a SharedMutex (reader side).
class DRUM_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) DRUM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLock() DRUM_RELEASE_SHARED() { mu_.unlock_shared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace drum::check

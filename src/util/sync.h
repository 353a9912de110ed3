// Thread-safety-annotated synchronization primitives.
//
// Thin wrappers over std::mutex that carry the Clang capability annotations
// from thread_annotations.h, so all shared state in the repo can be declared
// ATYPICAL_GUARDED_BY(mu_) and verified at compile time under
// `-Wthread-safety` (and at run time under `-DATYPICAL_TSAN=ON`).
//
//   Mutex mu_;
//   int queue_depth_ ATYPICAL_GUARDED_BY(mu_) = 0;
//
//   void Push() {
//     MutexLock lock(&mu_);
//     ++queue_depth_;          // ok: lock held
//   }
//
// Raw std::mutex must not be used for new shared state — the analysis
// cannot see it.  See DESIGN.md "Correctness tooling".
#ifndef ATYPICAL_UTIL_SYNC_H_
#define ATYPICAL_UTIL_SYNC_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace atypical {

// A standard mutex carrying the `capability` annotation.
class ATYPICAL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ATYPICAL_ACQUIRE() { mu_.lock(); }
  void Unlock() ATYPICAL_RELEASE() { mu_.unlock(); }
  bool TryLock() ATYPICAL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock; the scoped_lockable annotation lets the analysis track the
// critical section's extent.
class ATYPICAL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ATYPICAL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() ATYPICAL_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace atypical

#endif  // ATYPICAL_UTIL_SYNC_H_

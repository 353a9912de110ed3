// Global operator new/delete replacement backing util/alloc_probe.h.
//
// Every overload forwards to malloc/free and bumps thread_local counters of
// calls and requested bytes.  They must be trivially destructible (plain
// integers) so counting stays safe during thread teardown, when
// allocations can still happen after thread_local destructors have run.
#include "util/alloc_probe.h"

#include <cstdlib>
#include <new>

namespace atypical {
namespace util {
namespace {

thread_local uint64_t g_thread_alloc_count = 0;
thread_local uint64_t g_thread_alloc_bytes = 0;

void* CountedAlloc(size_t size) {
  ++g_thread_alloc_count;
  g_thread_alloc_bytes += size;
  // Zero-size requests must still return a unique non-null pointer.
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(size_t size, size_t alignment) {
  ++g_thread_alloc_count;
  g_thread_alloc_bytes += size;
  if (size == 0) size = alignment;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace

uint64_t ThreadAllocCount() { return g_thread_alloc_count; }
uint64_t ThreadAllocBytes() { return g_thread_alloc_bytes; }

}  // namespace util
}  // namespace atypical

// The replacement operators live outside any namespace.  Throwing overloads
// must report exhaustion with std::bad_alloc; nothrow overloads return null.
void* operator new(size_t size) {
  void* p = atypical::util::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) {
  void* p = atypical::util::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return atypical::util::CountedAlloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return atypical::util::CountedAlloc(size);
}

void* operator new(size_t size, std::align_val_t alignment) {
  void* p =
      atypical::util::CountedAlignedAlloc(size, static_cast<size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size, std::align_val_t alignment) {
  void* p =
      atypical::util::CountedAlignedAlloc(size, static_cast<size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

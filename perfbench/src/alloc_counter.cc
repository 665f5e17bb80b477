// Counting replacements of the global allocation operators: every
// operator-new call in the process (the program under test and the
// benchmark alike) bumps one relaxed atomic. The benchmark's own steady
// state allocates nothing, so a per-query delta is the program's.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "measure.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* Allocate(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t alignment) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t align = static_cast<std::size_t>(alignment);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace perfbench {
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return AllocateAligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return AllocateAligned(size, alignment);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

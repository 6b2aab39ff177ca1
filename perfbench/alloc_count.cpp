#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::int64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::allocate_aligned(size, align);
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
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

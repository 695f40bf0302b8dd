#pragma once

/// @file alloc_counter.hpp
/// Process-wide heap allocation counting for zero-allocation assertions.
///
/// Including this header REPLACES the global allocation functions of the
/// binary, so include it in exactly ONE translation unit of an executable
/// (it defines non-inline operators — a second including TU is an ODR
/// violation the linker will reject). The zero-allocation tests include it
/// to prove hot paths such as the precompiled CAN codec never touch the
/// heap.

#include <atomic>
#include <cstdlib>
#include <new>

namespace scaa::util {

/// Total operator-new calls in this process so far. Bracket the code under
/// test with two reads; the difference is exact.
inline std::atomic<std::uint64_t> g_allocation_count{0};

}  // namespace scaa::util

// The replaced operators pair new->malloc with delete->free by design;
// GCC cannot see that every new in this binary is the malloc one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  scaa::util::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  scaa::util::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Over-aligned forms (C++17): without these an alignas(>16) allocation
// would bypass the counter and the zero-allocation gate would lie.
// std::aligned_alloc requires the size to be a multiple of the alignment.
namespace scaa::util::detail {
inline void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace scaa::util::detail

void* operator new(std::size_t size, std::align_val_t align) {
  return scaa::util::detail::counted_aligned_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return scaa::util::detail::counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

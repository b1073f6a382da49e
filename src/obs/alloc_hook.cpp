/// \file alloc_hook.cpp
/// Opt-in allocation-counting hook. NOT part of any library: an executable
/// that wants apf::obs::allocStats() to report real numbers adds this file
/// to its own sources (scratch_test). Linking it does two
/// things: the strong definitions below override the weak inactive ones in
/// alloc.cpp, and the global operator new/delete replacements route every
/// allocation through two relaxed atomic increments.
///
/// The replacements deliberately keep the default semantics (malloc/free,
/// std::bad_alloc on exhaustion) so behavior is identical minus the
/// counting; under ASan the malloc call below resolves to ASan's
/// interceptor, so the hook composes with sanitizers instead of fighting
/// them (the CI ASan lane runs scratch_test to prove this stays true).

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/alloc.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_bytes{0};

void* countedAlloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

}  // namespace

namespace apf::obs {

bool allocCountingActive() { return true; }

AllocStats allocStats() {
  return {g_news.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace apf::obs

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

/**
 * @file
 * Counting replacements of the global allocation functions. They keep
 * malloc/free underneath, so new and delete stay paired for the
 * sanitizers.
 *
 * They live in a translation unit with no new-expression of its own:
 * where the compiler can inline a replacement operator delete into the
 * code that called operator new, it sees free() on a pointer from
 * operator new and warns (-Wmismatched-new-delete), although the two
 * replacements match.
 */

#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> allocCount{0};

void *
countedAlloc(std::size_t n)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

std::uint64_t
pva::test::allocationCount()
{
    return allocCount.load(std::memory_order_relaxed);
}

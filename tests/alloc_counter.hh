/**
 * @file
 * A count of every heap allocation the test binary makes, through
 * replacements of the global operator new (alloc_counter.cc).
 */

#ifndef PVA_TESTS_ALLOC_COUNTER_HH
#define PVA_TESTS_ALLOC_COUNTER_HH

#include <cstdint>

namespace pva::test
{

/** Global operator new calls so far, across all threads. */
std::uint64_t allocationCount();

} // namespace pva::test

#endif // PVA_TESTS_ALLOC_COUNTER_HH

/**
 * @file
 * Shared helpers for the benches that run on the SweepExecutor worker
 * pool.
 */

#ifndef PVA_BENCH_COMMON_HH
#define PVA_BENCH_COMMON_HH

#include <cstdlib>
#include <cstring>

#include "kernels/sweep_executor.hh"
#include "sim/logging.hh"

namespace pva::benchutil
{

/** Worker count from a --jobs N argument (0 = all hardware threads). */
inline unsigned
parseJobs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (!std::strcmp(argv[i], "--jobs")) {
            char *end = nullptr;
            unsigned long n = std::strtoul(argv[i + 1], &end, 10);
            if (end == argv[i + 1] || *end != '\0')
                fatal("--jobs expects a number, got '%s'", argv[i + 1]);
            return static_cast<unsigned>(n);
        }
    }
    return 0;
}

} // namespace pva::benchutil

#endif // PVA_BENCH_COMMON_HH

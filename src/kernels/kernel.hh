/**
 * @file
 * The benchmark kernels of Table 2 and their memory-operation traces.
 *
 * Each kernel is a loop over L strided elements of one to three streams
 * (copy, saxpy, scale, swap, tridiag, vaxpy, plus the unrolled copy2 and
 * scale2 variants). Following the paper's methodology the CPU is
 * infinitely fast: the trace contains one cache-line vector command per
 * 32-element chunk per stream, with data dependences only where a write
 * consumes the values of its chunk's reads.
 *
 * Traces carry the actual write data (computed with 32-bit integer
 * semantics against the initial memory image), so running a trace both
 * measures cycles and functionally exercises scatter/gather: tests
 * verify the final memory image against the reference.
 */

#ifndef PVA_KERNELS_KERNEL_HH
#define PVA_KERNELS_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/command_unit.hh"
#include "sim/memory.hh"
#include "sim/types.hh"
#include "sim/vocabulary.hh"

namespace pva
{

/** The eight kernel configurations evaluated in chapter 6. */
enum class KernelId
{
    Copy,
    Saxpy,
    Scale,
    Swap,
    Tridiag,
    Vaxpy,
    Copy2,  ///< copy unrolled x2 (grouped vector commands)
    Scale2, ///< scale unrolled x2
};

/** The name table, read from the kernel specs ("copy" ... "scale2"),
 *  in the paper's presentation order. */
const Vocabulary<KernelId> &kernelIds();

/** kernelIds().values() */
const std::vector<KernelId> &allKernels();

/** Static description of a kernel. */
struct KernelSpec
{
    KernelId id;
    std::string name;
    unsigned numStreams;                ///< Distinct arrays touched
    std::vector<unsigned> readStreams;  ///< Streams read each iteration
    std::vector<unsigned> writeStreams; ///< Streams written
    unsigned unroll;                    ///< Command grouping factor
};

const KernelSpec &kernelSpec(KernelId id);

/** Workload parameters for one run. */
struct WorkloadConfig
{
    std::uint32_t stride = 1;
    std::uint32_t elements = 1024; ///< L per stream (32 cache lines)
    unsigned lineWords = 32;
    std::vector<WordAddr> streamBases; ///< One base per stream
};

/**
 * Build the trace of @p kernel under @p config, computing write data
 * against the current contents of @p mem.
 */
KernelTrace buildTrace(const KernelSpec &kernel,
                       const WorkloadConfig &config,
                       const SparseMemory &mem);

/** Check @p mem against the trace's expected writes. Returns the number
 *  of mismatching words (0 = pass). */
std::size_t verifyTrace(const KernelTrace &trace, const SparseMemory &mem);

} // namespace pva

#endif // PVA_KERNELS_KERNEL_HH

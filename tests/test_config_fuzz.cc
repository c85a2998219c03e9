/**
 * @file
 * Configuration fuzz smoke test: seeded random mutations of
 * SystemConfig (including hostile geometry shapes, zeroed resources,
 * inverted timing constraints, and out-of-range fault rates) must
 * either validate cleanly or fail with a structured SimError — never
 * an uncaught exception, assertion, or crash. Configs that survive
 * validation occasionally run a small bounded point to shake out
 * late (construction- or run-time) failures, which must also surface
 * as SimErrors.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "kernels/sweep.hh"
#include "sdram/geometry.hh"
#include "sim/random.hh"
#include "sim/sim_error.hh"

namespace pva
{
namespace
{

/** Adversarial value pools: boundary, zero, huge, and benign values. */
constexpr unsigned kUnsignedPool[] = {0,  1,  2,  3,   4,   5,
                                      8,  12, 16, 31,  32,  33,
                                      64, 97, 256, 4096};
constexpr double kRatePool[] = {-1.0, -0.001, 0.0, 0.0001, 0.5,
                                0.999, 1.0, 1.001, 2.0, 1e9};

unsigned
pickUnsigned(Random &rng)
{
    return kUnsignedPool[rng.below(std::size(kUnsignedPool))];
}

double
pickRate(Random &rng)
{
    return kRatePool[rng.below(std::size(kRatePool))];
}

/** Apply one random mutation (geometry rebuilds may throw the
 *  structured rejection straight from the Geometry constructor). */
void
mutate(Random &rng, SystemConfig &cfg)
{
    switch (rng.below(19)) {
      case 0:
        cfg.geometry = Geometry(pickUnsigned(rng), pickUnsigned(rng));
        break;
      case 1:
        cfg.geometry =
            Geometry(16, 1, pickUnsigned(rng) % 24,
                     pickUnsigned(rng) % 8, pickUnsigned(rng) % 24);
        break;
      case 2:
        cfg.timing.tRCD = pickUnsigned(rng);
        break;
      case 3:
        cfg.timing.tCL = pickUnsigned(rng);
        break;
      case 4:
        cfg.timing.tRP = pickUnsigned(rng);
        break;
      case 5:
        cfg.timing.tRAS = pickUnsigned(rng);
        break;
      case 6:
        cfg.timing.tRC = pickUnsigned(rng);
        break;
      case 7:
        cfg.timing.tWR = pickUnsigned(rng);
        break;
      case 8:
        cfg.timing.tREFI = pickUnsigned(rng);
        break;
      case 9:
        cfg.timing.tRFC = pickUnsigned(rng);
        break;
      case 10:
        cfg.bc.fifoEntries = pickUnsigned(rng);
        break;
      case 11:
        cfg.bc.vectorContexts = pickUnsigned(rng);
        break;
      case 12:
        cfg.bc.lineWords = pickUnsigned(rng);
        break;
      case 13:
        cfg.bc.transactions = pickUnsigned(rng);
        break;
      case 14:
        cfg.bc.fhcLatency = pickUnsigned(rng);
        break;
      case 15:
        cfg.faults.seed = rng.next();
        break;
      case 16:
        cfg.faults.refreshStallRate = pickRate(rng);
        cfg.faults.bcStallRate = pickRate(rng);
        break;
      case 17:
        cfg.faults.dropTransferRate = pickRate(rng);
        cfg.faults.corruptFirstHitRate = pickRate(rng);
        break;
      case 18:
        cfg.bc.bypassEnabled = rng.below(2) != 0;
        cfg.optimisticLineReuse = rng.below(2) != 0;
        cfg.timingCheck = rng.below(2) != 0;
        break;
    }
}

TEST(ConfigFuzz, MutatedConfigsFailOnlyWithStructuredErrors)
{
    Random rng(0xc0ffee);
    unsigned validated = 0;
    unsigned rejected = 0;
    unsigned executed = 0;

    for (unsigned iter = 0; iter < 300; ++iter) {
        SystemConfig cfg;
        bool valid = false;
        try {
            const unsigned mutations =
                1 + static_cast<unsigned>(rng.below(4));
            for (unsigned m = 0; m < mutations; ++m)
                mutate(rng, cfg);
            cfg.validate();
            valid = true;
        } catch (const SimError &e) {
            // Structured rejection is the contract: a category, a
            // component, and a non-empty diagnostic.
            EXPECT_NE(e.what()[0], '\0');
            EXPECT_EQ(e.kind(), SimErrorKind::Config)
                << "iteration " << iter << ": " << e.what();
            ++rejected;
            continue;
        } catch (const std::exception &e) {
            FAIL() << "iteration " << iter
                   << ": non-SimError escaped: " << e.what();
        }
        ASSERT_TRUE(valid);
        ++validated;

        // Every 8th surviving config also has to *run* without
        // anything but a SimError escaping (fault injection and the
        // cycle watchdog make several kinds legitimate). Monster
        // geometries are skipped: thousands of bank controllers
        // stepping a bounded run is pure wall-clock with no new
        // coverage over the validation pass.
        if (validated % 8 != 0 || cfg.geometry.banks() > 64)
            continue;
        ++executed;
        SweepRequest req;
        req.kernel = KernelId::Copy;
        req.stride = 3;
        req.elements = 32;
        req.config = cfg;
        req.limits.maxCycles = 20000;
        try {
            runPoint(req);
        } catch (const SimError &e) {
            EXPECT_NE(e.what()[0], '\0');
        } catch (const std::exception &e) {
            FAIL() << "iteration " << iter
                   << ": non-SimError escaped runPoint: " << e.what();
        }
    }

    // The pools are adversarial enough that both outcomes must occur;
    // otherwise the fuzzer is not exercising anything.
    EXPECT_GT(validated, 10u);
    EXPECT_GT(rejected, 10u);
    EXPECT_GT(executed, 0u);
}

} // anonymous namespace
} // namespace pva

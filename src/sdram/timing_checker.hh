/**
 * @file
 * Independent SDRAM protocol and data-integrity checker.
 *
 * The bank controllers already consult a restimer scoreboard
 * (SdramDevice::canIssue) before issuing, but nothing verified that the
 * scoreboard itself is right. The TimingChecker is a redundant observer
 * with its own timing state: every command a device commits is replayed
 * against a second implementation of the tRCD / tCL / tRP / tRAS / tRC
 * / tWR / refresh / data-bus-turnaround rules, and any disagreement is
 * reported as a SimError(Protocol) with component and cycle context
 * instead of silently trusting the scheduler.
 *
 * The checker also keeps a shadow model of every in-flight transaction:
 * the address and data of each word a device actually read or wrote is
 * recorded per (transaction, line slot), and when the front end
 * completes a gather (or scatter) the staged line is verified slot by
 * slot — every element present, gathered from the address the vector
 * command names, carrying the device's data. Dropped staging transfers
 * and corrupted FirstHit results (see sim/fault.hh) surface here as
 * SimError(Corruption) rather than as a silently wrong line.
 *
 * One checker instance serves a whole PvaUnit (all banks); devices and
 * the front end feed it through the hooks below. All hooks are called
 * from the single simulation thread of one system instance.
 */

#ifndef PVA_SDRAM_TIMING_CHECKER_HH
#define PVA_SDRAM_TIMING_CHECKER_HH

#include <string>
#include <vector>

#include "core/vector_command.hh"
#include "sdram/device.hh"
#include "sdram/geometry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

/** Redundant protocol verifier and per-transaction shadow model. */
class TimingChecker
{
  public:
    /** @p policy selects the per-backend rule set (subarray-scoped
     *  row-cycle rules for SALP, debt-window refresh audit for
     *  DeferredRefresh); the default is the legacy part. */
    TimingChecker(const Geometry &geo, const SdramTiming &timing,
                  unsigned banks, unsigned transactions,
                  unsigned line_words,
                  const BackendPolicy &policy = BackendPolicy{});

    /** @name Timing layer (SDRAM devices only)
     * Called by SdramDevice as it commits commands; throws
     * SimError(Protocol) on any rule violation. @{ */
    void onCommand(const std::string &device, unsigned bank,
                   const DeviceOp &op, Cycle now);
    /** A refresh closed every row slot of @p bank and holds the device
     *  busy until @p busy_until. @p covered names the tREFI boundary
     *  this refresh satisfies, 0 for an injected refresh (satisfies
     *  none). On a DeferredRefresh backend, coverage must be in order
     *  and within the policy window of the boundary, or
     *  SimError(Protocol). */
    void onRefresh(unsigned bank, Cycle now, Cycle busy_until,
                   Cycle covered);
    /** @} */

    /** @name Data shadow layer (all devices)
     * Record the words devices actually transfer. @{ */
    void onReadData(unsigned bank, const DeviceOp &op, Word data);
    void onWriteData(unsigned bank, const DeviceOp &op);
    /** @} */

    /** @name Transaction verification (front end)
     * beginTxn() arms the shadow slots when a command is broadcast;
     * verifyGather()/verifyScatter() audit the completed line and throw
     * SimError(Corruption) on any divergence. @{ */
    void beginTxn(const VectorCommand &cmd);
    void verifyGather(const VectorCommand &cmd,
                      const std::vector<Word> &line, Cycle now);
    void verifyScatter(const VectorCommand &cmd,
                       const std::vector<Word> &data, Cycle now);
    void releaseTxn(std::uint8_t txn);
    /** @} */

    /** @name Statistics @{ */
    Scalar statCommands; ///< Device commands verified
    Scalar statGathers;  ///< Read lines audited
    Scalar statScatters; ///< Write lines audited
    /** @} */

    void registerStats(StatSet &set, const std::string &prefix) const;

  private:
    /** Shadow timing state of one row slot (internal bank on legacy
     *  backends, (internal bank, subarray) on SALP). */
    struct IBankState
    {
        bool open = false;
        std::uint32_t row = 0;
        Cycle activateAt = 0;       ///< Command cycle of the last activate
        bool everActivated = false;
        Cycle prechargeStartAt = 0; ///< When the last precharge began
        bool everPrecharged = false;
        Cycle writeDataAt = 0;      ///< Last write's data-pin cycle
        bool everWritten = false;
    };

    /** Shadow timing state of one external bank device. */
    struct DeviceState
    {
        std::vector<IBankState> ibanks; ///< Indexed by row slot
        Cycle lastCommandAt = kNeverCycle; ///< One command bus per device
        Cycle lastDataAt = 0;              ///< Data pin occupancy
        bool lastDataWasRead = true;
        bool anyDataYet = false;
        Cycle refreshBusyUntil = 0;
        /** Latest tREFI boundary a scheduled refresh has covered.
         *  Audits event clocking: every boundary inside a skipped
         *  span must still have produced its onRefresh before the
         *  next command (the device catch-up runs at tick start). */
        Cycle refreshSeenThrough = 0;
    };

    /** What a device transferred for one (transaction, slot). */
    struct SlotRecord
    {
        bool seen = false;
        WordAddr addr = 0;
        Word data = 0;
    };

    [[noreturn]] void violation(const std::string &device, Cycle now,
                                const std::string &detail) const;

    SlotRecord &slotOf(unsigned bank, const DeviceOp &op);

    const Geometry &geometry;
    SdramTiming times;
    BackendPolicy pol;
    std::vector<DeviceState> devs;
    std::vector<std::vector<SlotRecord>> txnSlots; ///< [txn][slot]
};

} // namespace pva

#endif // PVA_SDRAM_TIMING_CHECKER_HH

/**
 * @file
 * Quarantine and repro capsule tests (docs/ROBUSTNESS.md): failed
 * sweep points yield repro capsules that pva_replay-style
 * replayCapsule re-executes to the same SimError, and a capsule that
 * cannot be written is reported, not printed. Capsules carry
 * SystemConfig through its one codec (configToJson/configFromJson), so
 * every field round-trips and feeds the fingerprint, the persisted
 * bytes are pinned, and files of an older schemaVersion are refused.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "expect_sim_error.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/sweep_executor.hh"

namespace pva
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

SweepRequest
smallPoint(std::uint32_t stride = 3, unsigned alignment = 0)
{
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = stride;
    req.alignment = alignment;
    req.elements = 128;
    return req;
}

/** A config with every SystemConfig field off its default. */
SystemConfig
everyFieldOffDefault()
{
    SystemConfig c;
    c.geometry = Geometry(8, 2, 8, 3, 12);
    c.timing = {3, 4, 3, 6, 9, 3, 781, 12};
    c.bc = {6, 2, 16, 7, 3, false, RowPolicy::AlwaysOpen};
    c.optimisticLineReuse = true;
    c.timingCheck = true;
    c.faults = {99, 0.125, 1.0 / 3.0, 0.1, 0.02};
    c.clocking = ClockingMode::Exhaustive;
    c.backend = MemBackend::Salp;
    c.salpSubarrays = 8;
    c.refreshDeferWindow = 50;
    return c;
}

/** @p path's content with the first @p from replaced by @p to. */
void
rewrite(const std::string &path, const std::string &from,
        const std::string &to)
{
    std::string content = slurp(path);
    const std::size_t at = content.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    spit(path, content.replace(at, from.size(), to));
}

/** A small mixed grid with one deterministic persistent failure. */
std::vector<SweepRequest>
mixedGrid()
{
    std::vector<SweepRequest> grid;
    for (std::uint32_t stride : {1u, 3u, 7u, 19u}) {
        grid.push_back(smallPoint(stride, 0));
        grid.push_back(smallPoint(stride, 1));
    }
    grid.push_back(smallPoint(4));
    // corruptFirstHitRate = 1.0 corrupts every attempt (including the
    // retry's advanced fault timeline), so this point reliably
    // exhausts the budget and lands in quarantine.
    grid.back().config.timingCheck = true;
    grid.back().config.faults.corruptFirstHitRate = 1.0;
    grid.push_back(smallPoint(5));
    return grid;
}

struct RunOutput
{
    SweepReport report;
    std::string json;
};

RunOutput
runGrid(const std::vector<SweepRequest> &grid, unsigned jobs,
        const std::string &quarantine_dir)
{
    SweepExecutor ex(jobs);
    ex.setMaxAttempts(2);
    ex.setQuarantineDir(quarantine_dir);
    RunOutput out;
    out.report = ex.runReport(grid);
    std::ostringstream j;
    out.report.dumpJson(j);
    out.json = j.str();
    return out;
}

TEST(ReproCapsule, FingerprintCoversBehaviorDeterminingState)
{
    SweepRequest a = smallPoint();
    SweepRequest b = a;
    EXPECT_EQ(fingerprintRequest(a), fingerprintRequest(b));

    b.stride = 4;
    EXPECT_NE(fingerprintRequest(a), fingerprintRequest(b));
    b = a;
    b.config.faults.seed += 1;
    EXPECT_NE(fingerprintRequest(a), fingerprintRequest(b));
    // Every SystemConfig field feeds the fingerprint.
    const std::vector<std::function<void(SystemConfig &)>> mutations = {
        [](SystemConfig &c) { c.geometry = Geometry(8); },
        [](SystemConfig &c) { c.geometry = Geometry(16, 2); },
        [](SystemConfig &c) { c.geometry = Geometry(16, 1, 8); },
        [](SystemConfig &c) { c.geometry = Geometry(16, 1, 9, 3); },
        [](SystemConfig &c) { c.geometry = Geometry(16, 1, 9, 2, 12); },
        [](SystemConfig &c) { c.timing.tRCD += 1; },
        [](SystemConfig &c) { c.timing.tCL += 1; },
        [](SystemConfig &c) { c.timing.tRP += 1; },
        [](SystemConfig &c) { c.timing.tRAS += 1; },
        [](SystemConfig &c) { c.timing.tRC += 1; },
        [](SystemConfig &c) { c.timing.tWR += 1; },
        [](SystemConfig &c) { c.timing.tREFI += 1; },
        [](SystemConfig &c) { c.timing.tRFC += 1; },
        [](SystemConfig &c) { c.bc.fifoEntries += 1; },
        [](SystemConfig &c) { c.bc.vectorContexts += 1; },
        [](SystemConfig &c) { c.bc.lineWords += 2; },
        [](SystemConfig &c) { c.bc.transactions += 1; },
        [](SystemConfig &c) { c.bc.fhcLatency += 1; },
        [](SystemConfig &c) { c.bc.bypassEnabled = false; },
        [](SystemConfig &c) { c.bc.rowPolicy = RowPolicy::AlwaysClose; },
        [](SystemConfig &c) { c.optimisticLineReuse = true; },
        [](SystemConfig &c) { c.timingCheck = true; },
        [](SystemConfig &c) { c.faults.seed += 1; },
        [](SystemConfig &c) { c.faults.refreshStallRate = 0.5; },
        [](SystemConfig &c) { c.faults.bcStallRate = 0.5; },
        [](SystemConfig &c) { c.faults.dropTransferRate = 0.5; },
        [](SystemConfig &c) { c.faults.corruptFirstHitRate = 0.5; },
        [](SystemConfig &c) { c.clocking = ClockingMode::Exhaustive; },
        [](SystemConfig &c) { c.backend = MemBackend::Salp; },
        [](SystemConfig &c) { c.salpSubarrays = 8; },
        [](SystemConfig &c) { c.refreshDeferWindow = 50; },
    };
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        b = a;
        mutations[i](b.config);
        EXPECT_FALSE(b.config == a.config) << "mutation " << i;
        EXPECT_NE(fingerprintRequest(a), fingerprintRequest(b))
            << "mutation " << i << ": " << configToJson(b.config);
    }
    b = a;
    b.limits.maxCycles = 12345;
    EXPECT_NE(fingerprintRequest(a), fingerprintRequest(b));
    // The wall-clock budget never changes simulated behavior, so
    // machines of different speed name the same attempt alike.
    b = a;
    b.limits.timeoutMillis = 5000.0;
    EXPECT_EQ(fingerprintRequest(a), fingerprintRequest(b));
}

TEST(ReproCapsule, QuarantinedPointYieldsAReplayableCapsule)
{
    std::vector<SweepRequest> grid = mixedGrid();
    const std::string dir = tempPath("quarantine_capsules");
    const RunOutput out = runGrid(grid, 2, dir);

    ASSERT_EQ(out.report.failed, 1u);
    ASSERT_EQ(out.report.quarantine.size(), 1u);
    const QuarantineRecord &q = out.report.quarantine[0];
    EXPECT_EQ(q.attempts, 2u);
    EXPECT_NE(q.error.find("fingerprint="), std::string::npos)
        << "failure text should name the capsule: " << q.error;
    EXPECT_NE(q.error.find("faultSeed="), std::string::npos) << q.error;

    ReproCapsule capsule = loadCapsule(q.capsulePath);
    EXPECT_EQ(capsule.fingerprint, q.fingerprint);
    EXPECT_EQ(capsule.attempts, 2u);
    EXPECT_EQ(capsule.request.config.faults.seed, q.faultSeed);
    ASSERT_FALSE(capsule.error.empty());
    // The capsule stores the raw error; the report's is the enriched
    // version of the same failure.
    EXPECT_NE(q.error.find(capsule.error), std::string::npos)
        << q.error << " vs " << capsule.error;

    // Replaying the capsule re-executes the exact failing attempt and
    // dies the same way.
    std::string observed;
    try {
        replayCapsule(capsule);
    } catch (const SimError &e) {
        observed = e.what();
    }
    ASSERT_FALSE(observed.empty()) << "failure did not reproduce";
    EXPECT_TRUE(sameSimError(observed, capsule.error))
        << observed << " vs " << capsule.error;
}

TEST(ReproCapsule, UnwritableCapsuleIsReportedNotPrinted)
{
    // pva_sim --sweep --json makes its envelope all of stderr, so the
    // executor itself must print nothing: the failure goes in the
    // report. A directory squatting on the failing point's capsule
    // path makes the capsule write fail.
    std::vector<SweepRequest> grid = mixedGrid();
    const std::string dir = tempPath("quarantine_blocked");
    const std::string blocker = dir + "/capsule-8.json";
    std::filesystem::create_directories(blocker);
    testing::internal::CaptureStderr();
    const RunOutput blocked = runGrid(grid, 1, dir);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    ASSERT_EQ(blocked.report.quarantine.size(), 1u);
    const QuarantineRecord &q = blocked.report.quarantine[0];
    EXPECT_EQ(q.index, 8u);
    EXPECT_EQ(q.capsulePath, "");
    EXPECT_NE(q.capsuleError.find(blocker), std::string::npos)
        << q.capsuleError;
    EXPECT_NE(blocked.json.find("\"capsuleError\": "), std::string::npos);
    EXPECT_TRUE(std::filesystem::is_directory(blocker));
}

TEST(ReproCapsule, CapsuleRoundTripsEveryConfigField)
{
    ReproCapsule original;
    SweepRequest &req = original.request;
    req = smallPoint(19, 3);
    req.system = SystemKind::PvaSram;
    req.kernel = KernelId::Vaxpy;
    req.elements = 96;
    req.config = everyFieldOffDefault();
    req.limits.maxCycles = 777777;
    req.limits.timeoutMillis = 0.1;
    original.attempts = 3;
    original.error = "[corruption] it broke \"badly\"";
    original.fingerprint = fingerprintRequest(req);

    const std::string path = tempPath("capsule_roundtrip.json");
    writeCapsuleFile(path, original);
    const ReproCapsule reloaded = loadCapsule(path);
    const SweepRequest &r = reloaded.request;
    EXPECT_EQ(r.config.backend, MemBackend::Salp);
    EXPECT_EQ(r.config.salpSubarrays, 8u);
    EXPECT_EQ(r.config.refreshDeferWindow, 50u);
    EXPECT_TRUE(r.config == req.config) << configToJson(r.config);
    EXPECT_EQ(configToJson(r.config), configToJson(req.config));
    EXPECT_EQ(r.system, req.system);
    EXPECT_EQ(r.kernel, req.kernel);
    EXPECT_EQ(r.stride, req.stride);
    EXPECT_EQ(r.alignment, req.alignment);
    EXPECT_EQ(r.elements, req.elements);
    EXPECT_EQ(r.limits.maxCycles, req.limits.maxCycles);
    EXPECT_EQ(r.limits.timeoutMillis, req.limits.timeoutMillis);
    EXPECT_EQ(reloaded.attempts, 3u);
    EXPECT_EQ(reloaded.error, original.error);
    EXPECT_EQ(fingerprintRequest(r), reloaded.fingerprint);
}

TEST(ReproCapsule, CapsulesRejectUnknownKeysAndOlderSchemas)
{
    ReproCapsule capsule;
    capsule.request = smallPoint();
    capsule.fingerprint = fingerprintRequest(capsule.request);
    const std::string path = tempPath("capsule_strict.json");

    writeCapsuleFile(path, capsule);
    rewrite(path, "\"schemaVersion\": 3", "\"schemaVersion\": 2");
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "schemaVersion 2, expected 3");

    // Knobs of older schemas smuggled into a schema-3 config are
    // refused, not silently dropped: schema 1's batchTicking and
    // schema 2's maxOutstanding.
    writeCapsuleFile(path, capsule);
    rewrite(path, "\"timingCheck\": false",
            "\"timingCheck\": false, \"batchTicking\": true");
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "unknown key 'batchTicking' in request.config");

    writeCapsuleFile(path, capsule);
    rewrite(path, "\"timingCheck\": false",
            "\"timingCheck\": false, \"maxOutstanding\": 8");
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "unknown key 'maxOutstanding' in request.config");

    writeCapsuleFile(path, capsule);
    rewrite(path, "\"backend\": \"legacy\"", "\"backend\": \"hbm\"");
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "unknown request.config.backend 'hbm'");

    writeCapsuleFile(path, capsule);
    rewrite(path, "\"salpSubarrays\": 4, ", "");
    test::expectSimError([&] { loadCapsule(path); }, SimErrorKind::Config,
                         "request.config.salpSubarrays is required");
}

TEST(ReproCapsule, WallClockCapsuleReplaysUnderItsBudget)
{
    // A budget this small expires at the watchdog's first check, in
    // cycle 0, so the failure is deterministic. Replayed without its
    // budget the point would complete cleanly and diverge.
    std::vector<SweepRequest> grid = {smallPoint(19)};
    grid[0].limits.maxCycles = 4000000000ULL;
    const double budget = 1e-6;
    grid[0].limits.timeoutMillis = budget;
    SweepExecutor ex(1);
    ex.setQuarantineDir(tempPath("quarantine_wallclock"));
    const SweepReport report = ex.runReport(grid);
    ASSERT_EQ(report.quarantine.size(), 1u);

    const ReproCapsule capsule =
        loadCapsule(report.quarantine[0].capsulePath);
    EXPECT_EQ(capsule.request.limits.timeoutMillis, budget);
    EXPECT_EQ(fingerprintRequest(capsule.request), capsule.fingerprint);
    ASSERT_NE(capsule.error.find("wall-clock"), std::string::npos)
        << capsule.error;
    std::string observed;
    try {
        replayCapsule(capsule);
    } catch (const SimError &e) {
        observed = e.what();
    }
    EXPECT_TRUE(sameSimError(observed, capsule.error))
        << observed << " vs " << capsule.error;
}

TEST(ReproCapsule, NameTablesRoundTripEveryValue)
{
    for (RowPolicy p : {RowPolicy::Managed, RowPolicy::AlwaysOpen,
                        RowPolicy::AlwaysClose}) {
        RowPolicy out = p == RowPolicy::Managed ? RowPolicy::AlwaysOpen
                                                : RowPolicy::Managed;
        EXPECT_TRUE(rowPolicies().parse(rowPolicyName(p), out));
        EXPECT_EQ(out, p);
    }
    for (SystemKind k : allSystems()) {
        SystemKind out = k == SystemKind::PvaSdram ? SystemKind::PvaSram
                                                   : SystemKind::PvaSdram;
        EXPECT_TRUE(systemKinds().parse(systemShortName(k), out));
        EXPECT_EQ(out, k);
    }
    for (KernelId k : allKernels()) {
        KernelId out =
            k == KernelId::Copy ? KernelId::Swap : KernelId::Copy;
        EXPECT_TRUE(kernelIds().parse(kernelSpec(k).name, out));
        EXPECT_EQ(out, k);
    }
    RowPolicy policy{};
    SystemKind system{};
    KernelId kernel{};
    EXPECT_FALSE(rowPolicies().parse("lazy", policy));
    EXPECT_FALSE(systemKinds().parse("vax", system));
    EXPECT_FALSE(kernelIds().parse("daxpy", kernel));
}

TEST(ReproCapsule, PersistedBytesArePinned)
{
    // Capsules embed this text and their fingerprints hash it: a
    // moved byte makes every capsule an older binary wrote carry a
    // fingerprint the new one no longer computes for its request.
    EXPECT_EQ(configToJson(SystemConfig{}),
              "{\"geometry\": {\"banks\": 16, \"interleave\": 1, "
              "\"colBits\": 9, \"ibankBits\": 2, \"rowBits\": 13}, "
              "\"timing\": {\"tRCD\": 2, \"tCL\": 2, \"tRP\": 2, "
              "\"tRAS\": 5, \"tRC\": 7, \"tWR\": 2, \"tREFI\": 0, "
              "\"tRFC\": 10}, \"bc\": {\"fifoEntries\": 8, "
              "\"vectorContexts\": 4, \"lineWords\": 32, "
              "\"transactions\": 8, \"fhcLatency\": 2, "
              "\"bypassEnabled\": true, \"rowPolicy\": \"managed\"}, "
              "\"optimisticLineReuse\": false, \"timingCheck\": false, "
              "\"clocking\": \"event\", \"backend\": \"legacy\", "
              "\"salpSubarrays\": 4, \"refreshDeferWindow\": 0, "
              "\"faults\": {\"seed\": 24301, \"refreshStallRate\": 0, "
              "\"bcStallRate\": 0, \"dropTransferRate\": 0, "
              "\"corruptFirstHitRate\": 0}}");
    SweepRequest req = smallPoint(19, 3);
    req.system = SystemKind::PvaSram;
    req.kernel = KernelId::Vaxpy;
    req.elements = 96;
    req.config = everyFieldOffDefault();
    req.limits.maxCycles = 777777;
    EXPECT_EQ(fingerprintRequest(req), 0x6ee7bea0e6a5f188ULL);
}

TEST(ReproCapsule, SameSimErrorToleratesWallClockVariance)
{
    EXPECT_TRUE(sameSimError(
        "[watchdog] simulation: wall-clock watchdog expired after "
        "51 ms (budget 50 ms)",
        "[watchdog] simulation: wall-clock watchdog expired after "
        "63 ms (budget 50 ms)"));
    EXPECT_FALSE(sameSimError(
        "[watchdog] simulation: wall-clock watchdog expired after "
        "51 ms (budget 50 ms)",
        "[watchdog] simulation: wall-clock watchdog expired after "
        "63 ms (budget 99 ms)"));
    EXPECT_TRUE(sameSimError("[config] bc: lineWords must be > 0",
                             "[config] bc: lineWords must be > 0"));
    EXPECT_FALSE(sameSimError("[config] bc: lineWords must be > 0",
                              "[config] bc: transactions must be > 0"));
}

} // anonymous namespace
} // namespace pva

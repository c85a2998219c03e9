#include "kernels/sweep_executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#ifndef _WIN32
#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include "kernels/repro_capsule.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{

namespace
{

/** Create the quarantine directory (existing is fine). */
void
ensureDirectory(const std::string &path)
{
#ifndef _WIN32
    if (mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
        throw SimError(SimErrorKind::Config, "quarantine", kNeverCycle,
                       csprintf("cannot create directory '%s': %s",
                                path.c_str(), std::strerror(errno)));
    }
#endif
}

} // anonymous namespace

void
SweepReport::dumpJson(std::ostream &os) const
{
    constexpr auto block = json::Writer::Layout::Block;
    json::Writer w(os);
    w.beginObject(block).field("points", points.size()).field("ok", ok);
    w.field("retried", retried).field("failed", failed);
    w.field("simTicks", simTicks).field("cyclesSkipped", cyclesSkipped);
    w.key("failures").beginArray(block);
    for (const TaskFailure &f : failures) {
        const SweepPoint &p = points[f.index];
        w.beginObject().field("index", f.index);
        w.field("system", systemShortName(p.system));
        w.field("kernel", kernelSpec(p.kernel).name);
        w.field("stride", p.stride).field("alignment", p.alignment);
        w.field("attempts", f.attempts).field("error", f.error).end();
    }
    w.end().key("quarantine").beginArray(block);
    for (const QuarantineRecord &q : quarantine) {
        w.beginObject().field("index", q.index);
        w.field("attempts", q.attempts).key("fingerprint");
        w.value(csprintf("%016llx",
                         static_cast<unsigned long long>(q.fingerprint)));
        w.field("faultSeed", q.faultSeed).field("capsule", q.capsulePath);
        if (!q.capsuleError.empty())
            w.field("capsuleError", q.capsuleError);
        w.field("error", q.error).end();
    }
    w.end().end().newline();
}

SweepExecutor::SweepExecutor(unsigned jobs) : workerCount(jobs)
{
    if (workerCount == 0) {
        workerCount = std::thread::hardware_concurrency();
        if (workerCount == 0)
            workerCount = 1;
    }
    statSet.addScalar("sweep.points", &statPoints);
    statSet.addScalar("sweep.simCycles", &statSimCycles);
    statSet.addScalar("sweep.simTicks", &statSimTicks);
    statSet.addScalar("sweep.cyclesSkipped", &statCyclesSkipped);
    statSet.addScalar("sweep.mismatches", &statMismatches);
    statSet.addScalar("sweep.retries", &statRetries);
    statSet.addScalar("sweep.failures", &statFailures);
    statSet.addDistribution("sweep.pointMillis", &statPointMillis);
}

void
SweepExecutor::setMaxAttempts(unsigned attempts)
{
    attemptBudget = std::max(1u, attempts);
}

TaskReport
SweepExecutor::runTasks(std::size_t count,
                        [[maybe_unused]] const char *process,
                        const TaskFn &task, const TaskDoneFn &observer)
{
    TaskReport report;
    std::atomic<std::size_t> next{0};
    std::mutex lock;
    std::size_t done = 0;

    // Attempt task @p i until it succeeds or its budget is spent;
    // @p failure records the last attempt's exception.
    auto attempt = [&](std::size_t i, TaskFailure &failure) {
#if PVA_TRACE_ENABLED
        // Own trace processes: the same export at any --jobs.
        trace::ProcessPrefix tracePrefix(csprintf("%s%zu", process, i));
#endif
        while (failure.attempts < attemptBudget) {
            try {
                task(i, failure.attempts++);
                return true;
            } catch (const SimError &e) {
                failure.error = e.what();
                failure.simError = true;
                failure.kind = e.kind();
                // A watchdog expiry is deterministic for a given
                // task — burning the rest of the attempt budget on it
                // just multiplies the timeout.
                if (e.kind() == SimErrorKind::Watchdog)
                    return false;
            } catch (const std::exception &e) {
                failure.error = e.what();
                failure.simError = false;
                failure.kind = SimErrorKind::Watchdog;
            }
        }
        return false;
    };

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;

            auto t0 = std::chrono::steady_clock::now();
            TaskFailure failure;
            failure.index = i;
            const bool succeeded = attempt(i, failure);
            const unsigned attempts = failure.attempts;
            double millis =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            std::lock_guard<std::mutex> guard(lock);
            ++done;
            if (!succeeded) {
                ++report.failed;
                report.failures.push_back(std::move(failure));
            } else if (attempts > 1) {
                ++report.retried;
            } else {
                ++report.ok;
            }
            if (observer)
                observer({i, attempts, succeeded, millis, done, count});
        }
    };

    std::size_t n = std::min<std::size_t>(workerCount, count);
    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    // Failures were appended in completion order; report them in
    // batch order so the report is deterministic across worker counts.
    std::sort(report.failures.begin(), report.failures.end(),
              [](const TaskFailure &a, const TaskFailure &b) {
                  return a.index < b.index;
              });
    return report;
}

SweepReport
SweepExecutor::runReport(const std::vector<SweepRequest> &grid)
{
    SweepReport report;
    report.points.resize(grid.size());

    // The request attempt @p attempt of point @p i runs.
    auto attemptRequest = [&](std::size_t i, unsigned attempt) {
        SweepRequest req = grid[i];
        req.config.faults = req.config.faults.forAttempt(attempt);
        return req;
    };

    if (!quarantineDir.empty())
        ensureDirectory(quarantineDir);

    auto task = [&](std::size_t i, unsigned attempt) {
        // runPoint builds a fresh system, so each attempt starts from
        // clean state. Distinct indices write distinct slots, so the
        // aggregation is race-free and deterministic.
        report.points[i] = runPoint(attemptRequest(i, attempt));
    };

    auto observe = [&](const TaskProgress &tp) {
        SweepPoint &p = report.points[tp.index];
        if (!tp.ok) {
            const SweepRequest &req = grid[tp.index];
            p = SweepPoint{req.system, req.kernel, req.stride,
                           req.alignment, 0, 0};
            p.status = PointStatus::Failed;
            ++statFailures;
        } else {
            p.status = tp.attempts > 1 ? PointStatus::Retried
                                       : PointStatus::Ok;
        }
        p.attempts = tp.attempts;
        ++statPoints;
        statRetries += tp.attempts - 1;
        statPointMillis.sample(static_cast<std::uint64_t>(tp.millis));
        statSimCycles += p.cycles;
        statSimTicks += p.simTicks;
        statCyclesSkipped += p.cyclesSkipped;
        report.simTicks += p.simTicks;
        report.cyclesSkipped += p.cyclesSkipped;
        statMismatches += p.mismatches;
        if (progress)
            progress({tp.done, tp.total, p, tp.millis});
    };

    static_cast<TaskReport &>(report) =
        runTasks(grid.size(), "point", task, observe);

    // A simulation failure names its last attempt: the fingerprint and
    // effective fault seed find the capsule from the failure text
    // alone. Any other exception has no request to replay.
    for (TaskFailure &f : report.failures) {
        if (!f.simError)
            continue;
        const SweepRequest req = attemptRequest(f.index, f.attempts - 1);
        const std::uint64_t fp = fingerprintRequest(req);
        const std::string raw = f.error;
        f.error += csprintf(" [fingerprint=%016llx faultSeed=%llu]",
                            static_cast<unsigned long long>(fp),
                            static_cast<unsigned long long>(
                                req.config.faults.seed));
        if (quarantineDir.empty())
            continue;
        QuarantineRecord q{f.index, f.attempts, fp,
                           req.config.faults.seed, f.error,
                           csprintf("%s/capsule-%zu.json",
                                    quarantineDir.c_str(), f.index),
                           ""};
        try {
            writeCapsuleFile(q.capsulePath, {req, f.attempts, raw, fp});
        } catch (const SimError &werr) {
            q.capsulePath.clear();
            q.capsuleError = werr.what();
        }
        report.quarantine.push_back(std::move(q));
    }
    return report;
}

std::vector<SweepRequest>
SweepExecutor::chapter6Grid(std::uint32_t elements,
                            const SystemConfig &config)
{
    std::vector<SweepRequest> grid;
    grid.reserve(allSystems().size() * allKernels().size() *
                 paperStrides().size() * alignmentPresets().size());
    for (SystemKind sys : allSystems()) {
        for (KernelId k : allKernels()) {
            for (std::uint32_t s : paperStrides()) {
                for (unsigned a = 0; a < alignmentPresets().size();
                     ++a) {
                    SweepRequest req;
                    req.system = sys;
                    req.kernel = k;
                    req.stride = s;
                    req.alignment = a;
                    req.elements = elements;
                    req.config = config;
                    grid.push_back(req);
                }
            }
        }
    }
    return grid;
}

void
writeCsvHeader(std::ostream &os)
{
    os << "system,kernel,stride,alignment,cycles,mismatches\n";
}

void
writeCsvRow(std::ostream &os, const SweepPoint &point)
{
    os << systemName(point.system) << ','
       << kernelSpec(point.kernel).name << ',' << point.stride << ','
       << alignmentPresets()[point.alignment].name << ',' << point.cycles
       << ',' << point.mismatches << '\n';
}

void
writeCsv(std::ostream &os, const std::vector<SweepPoint> &points)
{
    writeCsvHeader(os);
    for (const SweepPoint &p : points)
        writeCsvRow(os, p);
}

} // namespace pva

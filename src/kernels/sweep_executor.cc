#include "kernels/sweep_executor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#ifndef _WIN32
#include <cerrno>
#include <cstring>
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include "kernels/repro_capsule.hh"
#include "kernels/sweep_journal.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

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
    for (const PointFailure &f : failures) {
        w.beginObject().field("index", f.index);
        w.field("system", systemShortName(f.system));
        w.field("kernel", kernelSpec(f.kernel).name);
        w.field("stride", f.stride).field("alignment", f.alignment);
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
SweepExecutor::runTasks(std::size_t count, const TaskFn &task,
                        const TaskDoneFn &observer)
{
    TaskReport report;
    std::atomic<std::size_t> next{0};
    std::mutex lock;
    std::size_t done = 0;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;

            auto t0 = std::chrono::steady_clock::now();
            bool succeeded = false;
            unsigned attempts = 0;
            std::string last_error;
            while (attempts < attemptBudget) {
                bool retryable = true;
                try {
                    task(i, attempts);
                    succeeded = true;
                } catch (const SimError &e) {
                    last_error = e.what();
                    // A watchdog expiry is deterministic for a given
                    // request — burning the rest of the attempt budget
                    // on it just multiplies the timeout.
                    retryable = e.kind() != SimErrorKind::Watchdog;
                } catch (const std::exception &e) {
                    last_error = e.what();
                }
                ++attempts;
                if (succeeded || !retryable)
                    break;
            }
            double millis =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

            std::lock_guard<std::mutex> guard(lock);
            ++statPoints;
            statRetries += attempts - 1;
            if (!succeeded) {
                ++statFailures;
                report.failures.push_back({i, attempts, last_error});
            }
            statPointMillis.sample(static_cast<std::uint64_t>(millis));
            ++done;
            if (succeeded) {
                if (attempts > 1)
                    ++report.retried;
                else
                    ++report.ok;
            } else {
                ++report.failed;
            }
            if (observer)
                observer({i, attempts, succeeded, millis, done, count,
                          last_error});
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

    const bool journaled = !checkpoint.journalPath.empty();
    const bool quarantining = !checkpoint.quarantineDir.empty();

    // The effective request of one attempt: the executor's default
    // wall-clock watchdog, plus the per-retry fault-seed advance (a
    // retry of a fault-injected point must explore a different fault
    // timeline, not replay the failure).
    auto effectiveRequest = [&](std::size_t i, unsigned attempt) {
        SweepRequest req = grid[i];
        if (pointTimeoutMillis > 0.0 &&
            req.limits.timeoutMillis <= 0.0) {
            req.limits.timeoutMillis = pointTimeoutMillis;
        }
        if (attempt > 0 && req.config.faults.enabled())
            req.config.faults.seed += kRetrySeedStep * attempt;
        return req;
    };

    auto capsulePathFor = [&](std::size_t index) {
        return checkpoint.quarantineDir +
               csprintf("/capsule-%zu.json", index);
    };

    // Restore a journaled point into the report and the executor
    // stats, exactly as completing it live would have.
    auto restorePoint = [&](const JournalRecord &rec) {
        const SweepRequest &req = grid[rec.index];
        const SweepPoint &p = rec.point;
        if (p.system != req.system || p.kernel != req.kernel ||
            p.stride != req.stride || p.alignment != req.alignment) {
            throw SimError(
                SimErrorKind::Corruption, "journal", kNeverCycle,
                csprintf("record %zu does not match the request grid",
                         rec.index));
        }
        report.points[rec.index] = p;
        ++report.resumed;
        ++statPoints;
        statRetries += p.attempts - 1;
        statSimCycles += p.cycles;
        statSimTicks += p.simTicks;
        statCyclesSkipped += p.cyclesSkipped;
        statMismatches += p.mismatches;
        report.simTicks += p.simTicks;
        report.cyclesSkipped += p.cyclesSkipped;
        switch (p.status) {
          case PointStatus::Ok:
            ++report.ok;
            break;
          case PointStatus::Retried:
            ++report.retried;
            break;
          case PointStatus::Failed:
            ++report.failed;
            ++statFailures;
            report.failures.push_back({rec.index, req.system,
                                       req.kernel, req.stride,
                                       req.alignment, p.attempts,
                                       rec.error});
            break;
        }
    };

    std::unique_ptr<SweepJournal> journal;
    std::vector<char> restored(grid.size(), 0);
    if (journaled) {
        const std::uint64_t gridFp = fingerprintGrid(grid);
        std::uint64_t resumeFrom = 0;
        if (checkpoint.resume) {
            SweepJournal::LoadResult loaded = SweepJournal::load(
                checkpoint.journalPath, gridFp, grid.size());
            if (loaded.exists) {
                resumeFrom = loaded.validBytes;
                report.tornJournalTail = loaded.tornTail;
                // Last record wins per index, though a well-formed
                // journal never repeats one.
                std::vector<const JournalRecord *> byIndex(grid.size(),
                                                           nullptr);
                for (const JournalRecord &rec : loaded.records)
                    byIndex[rec.index] = &rec;
                for (std::size_t i = 0; i < grid.size(); ++i) {
                    if (!byIndex[i])
                        continue;
                    restorePoint(*byIndex[i]);
                    restored[i] = 1;
                }
            }
        }
        journal = std::make_unique<SweepJournal>(checkpoint.journalPath,
                                                 gridFp, grid.size(),
                                                 resumeFrom);
    }
    if (quarantining)
        ensureDirectory(checkpoint.quarantineDir);

    // Only not-yet-restored points run; task index j is a position in
    // `pending`, everything reported maps back through it.
    std::vector<std::size_t> pending;
    pending.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!restored[i])
            pending.push_back(i);
    }

    // Per grid index, so workers never share a slot.
    std::vector<std::string> capsuleErrors(grid.size());
    auto task = [&](std::size_t j, unsigned attempt) {
        const std::size_t i = pending[j];
        SweepRequest req = effectiveRequest(i, attempt);
        try {
            // runPoint builds a fresh system, so each attempt starts
            // from clean state. Distinct indices write distinct slots,
            // so the aggregation is race-free and deterministic.
            report.points[i] = runPoint(req);
        } catch (const SimError &e) {
            const bool finalAttempt =
                e.kind() == SimErrorKind::Watchdog ||
                attempt + 1 >= attemptBudget;
            const std::uint64_t fp = fingerprintRequest(req);
            if (finalAttempt && quarantining) {
                try {
                    writeCapsuleFile(capsulePathFor(i),
                                     {req, attempt + 1, e.what(), fp});
                } catch (const SimError &werr) {
                    capsuleErrors[i] = werr.what();
                }
            }
            // The fingerprint and effective seed name the capsule from
            // the failure text alone.
            throw SimError(
                e.kind(), e.component(), e.cycle(),
                e.detail() +
                    csprintf(" [fingerprint=%016llx faultSeed=%llu]",
                             static_cast<unsigned long long>(fp),
                             static_cast<unsigned long long>(
                                 req.config.faults.seed)));
        }
    };

    auto observe = [&](const TaskProgress &tp) {
        const std::size_t i = pending[tp.index];
        SweepPoint &p = report.points[i];
        if (!tp.ok) {
            const SweepRequest &req = grid[i];
            p = SweepPoint{req.system, req.kernel, req.stride,
                           req.alignment, 0, 0};
            p.status = PointStatus::Failed;
        } else {
            p.status = tp.attempts > 1 ? PointStatus::Retried
                                       : PointStatus::Ok;
        }
        p.attempts = tp.attempts;
        statSimCycles += p.cycles;
        statSimTicks += p.simTicks;
        statCyclesSkipped += p.cyclesSkipped;
        report.simTicks += p.simTicks;
        report.cyclesSkipped += p.cyclesSkipped;
        statMismatches += p.mismatches;
        if (journal) {
            // The observer runs under the executor's lock, so appends
            // are serialized; each append is fsync'd before the next
            // point can report.
            journal->append(
                {i, p, tp.ok ? std::string() : tp.error});
        }
        if (progress)
            progress({tp.done, tp.total, p, tp.millis});
    };

    TaskReport tasks = runTasks(pending.size(), task, observe);
    report.ok += tasks.ok;
    report.retried += tasks.retried;
    report.failed += tasks.failed;
    for (const TaskFailure &f : tasks.failures) {
        const std::size_t i = pending[f.index];
        const SweepRequest &req = grid[i];
        report.failures.push_back({i, req.system, req.kernel,
                                   req.stride, req.alignment,
                                   f.attempts, f.error});
    }
    // Restored and fresh failures interleave; request order is the
    // report's contract.
    std::sort(report.failures.begin(), report.failures.end(),
              [](const PointFailure &a, const PointFailure &b) {
                  return a.index < b.index;
              });
    if (quarantining) {
        for (const PointFailure &f : report.failures) {
            SweepRequest eff = effectiveRequest(f.index, f.attempts - 1);
            const std::string &capsuleError = capsuleErrors[f.index];
            report.quarantine.push_back(
                {f.index, f.attempts, fingerprintRequest(eff),
                 eff.config.faults.seed, f.error,
                 capsuleError.empty() ? capsulePathFor(f.index) : "",
                 capsuleError});
        }
    }
    return report;
}

std::vector<SweepPoint>
SweepExecutor::run(const std::vector<SweepRequest> &grid)
{
    return runReport(grid).points;
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

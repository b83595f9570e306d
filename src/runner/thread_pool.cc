#include "runner/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "check/check.h"
#include "check/flight_recorder.h"
#include "hw/perf_counters.h"

namespace pdp
{
namespace runner
{

ThreadPoolExecutor::ThreadPoolExecutor(ExecutorOptions options)
    : options_(std::move(options))
{
    workers_ = options_.workers;
    if (workers_ == 0) {
        workers_ = std::thread::hardware_concurrency();
        if (workers_ == 0)
            workers_ = 1;
    }
}

std::vector<JobRecord>
ThreadPoolExecutor::execute(const Job &job, unsigned laneThreads) const
{
    JobContext ctx;
    ctx.seed = job.seed;
    ctx.laneThreads = laneThreads;

    std::vector<JobRecord> group;
    const auto fail = [&group, &job](std::string error) {
        group.assign(1, JobRecord{});
        group[0].key = job.key;
        group[0].status = JobStatus::Failed;
        group[0].error = std::move(error);
    };

    // Bind this thread to the job so in-simulation capture sites (the
    // FlightScope inside a run) know which FLIGHT file they belong to.
    check::FlightRecorder::setJobKey(job.key);

    // Per-job hardware profiling: counters are thread-scoped, and the
    // executor runs one job per thread at a time, so the delta is the
    // job's own execution.  Null backend => hw stays invalid/absent.
    std::unique_ptr<hw::PerfCounterGroup> perf;
    hw::PerfReading perfBase;
    if (options_.perfCounters) {
        perf = std::make_unique<hw::PerfCounterGroup>();
        perf->start();
        perfBase = perf->read();
    }

    // pdplint: allow(wall-clock) job duration feeds the volatile
    // `seconds` field only; ResultsSink omits it from deterministic
    // dumps.
    const auto start = std::chrono::steady_clock::now();
    try {
        PDP_CHECK((job.run != nullptr) + (job.runMany != nullptr) == 1,
                  "job \"", job.key,
                  "\" must set exactly one of run / runMany");
        // A run job is the one-outcome case of a runMany job.
        std::vector<KeyedOutcome> outcomes;
        if (job.run)
            outcomes.push_back({job.key, job.run(ctx)});
        else
            outcomes = job.runMany(ctx);
        PDP_CHECK(!outcomes.empty(), "job \"", job.key,
                  "\" returned no outcomes");
        for (KeyedOutcome &keyed : outcomes) {
            JobRecord &record = group.emplace_back();
            record.key = std::move(keyed.key);
            record.outcome = std::move(keyed.outcome);
            record.status = JobStatus::Ok;
        }
    } catch (const std::exception &e) {
        fail(e.what());
    } catch (...) {
        fail("non-standard exception");
    }
    const double seconds =
        // pdplint: allow(wall-clock) see above: volatile timing only.
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    hw::PerfReading perfDelta;
    if (perf)
        perfDelta = perf->read().since(perfBase);

    for (JobRecord &record : group) {
        record.seed = job.seed;
        record.seconds = seconds;
        record.hw = perfDelta;
    }

    // Flight-recorder fallback: a simulation with a FlightScope already
    // dumped richer context during its unwind (the per-job dedup makes
    // this a no-op then); this catches every other failure, e.g. of a
    // job that declares no scope.
    for (const JobRecord &record : group)
        if (record.status == JobStatus::Failed)
            check::FlightRecorder::global().dump(
                record.key, "job_failed", record.error, nullptr, nullptr);
    check::FlightRecorder::setJobKey("");
    return group;
}

std::vector<JobRecord>
ThreadPoolExecutor::run(const std::vector<Job> &jobs)
{
    if (jobs.empty())
        return {};

    // Per-input-index record groups, flattened in input order below so a
    // runMany job's expansion lands exactly where its jobs-list slot is.
    std::vector<std::vector<JobRecord>> groups(jobs.size());
    std::atomic<size_t> next{0};
    const unsigned fanOut = static_cast<unsigned>(
        std::min<size_t>(workers_, jobs.size()));
    const unsigned laneThreads =
        std::max(1u, std::thread::hardware_concurrency() / fanOut);

    auto worker = [&] {
        for (;;) {
            const size_t index = next.fetch_add(1);
            if (index >= jobs.size())
                return;
            groups[index] = execute(jobs[index], laneThreads);
        }
    };

    if (fanOut <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(fanOut);
        for (unsigned id = 0; id < fanOut; ++id)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }

    std::vector<JobRecord> records;
    records.reserve(jobs.size());
    for (std::vector<JobRecord> &group : groups)
        for (JobRecord &record : group)
            records.push_back(std::move(record));
    return records;
}

} // namespace runner
} // namespace pdp
